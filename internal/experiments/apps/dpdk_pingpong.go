package apps

// The native-DPDK version of the benchmarking application (Table 3 row
// "DPDK"): this is what a developer writes against the raw PMD interface.
// Compare the amount of code with the INSANE version: the application has
// to manage the mempool, resolve addresses, build and parse every
// Ethernet/IPv4/UDP header, drive TX/RX bursts, and handle stray frames —
// none of which exists in the INSANE version. The paper measures +103%
// lines over INSANE for exactly this reason.

import (
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
)

// dpdkApp bundles the state a raw DPDK application must carry around.
type dpdkApp struct {
	port    *datapath.Endpoint
	mem     *mempool.Manager
	local   netstack.Endpoint
	remote  netstack.Endpoint
	srcMAC  netstack.MAC
	dstMAC  netstack.MAC
	mtu     int
	rxBurst [1]datapath.Packet
}

// dpdkInit opens the PMD port and resolves the peer's L2 address — the
// rte_eal_init / rte_eth_dev_configure boilerplate.
func dpdkInit(env *Env, portA bool) *dpdkApp {
	app := &dpdkApp{}
	if portA {
		app.mem = env.MemA
		app.local, app.remote = env.AddrA, env.AddrB
		ep, err := datapath.Open(model.TechDPDK, datapath.Config{
			Port: env.PortA, Resolver: env.Net.Resolver(), Local: env.AddrA,
			Mem: env.MemA, Testbed: env.Testbed,
		})
		check(err, "dpdk port A")
		app.port = ep
		app.srcMAC = env.PortA.MAC()
		app.mtu = env.PortA.MTU()
	} else {
		app.mem = env.MemB
		app.local, app.remote = env.AddrB, env.AddrA
		ep, err := datapath.Open(model.TechDPDK, datapath.Config{
			Port: env.PortB, Resolver: env.Net.Resolver(), Local: env.AddrB,
			Mem: env.MemB, Testbed: env.Testbed,
		})
		check(err, "dpdk port B")
		app.port = ep
		app.srcMAC = env.PortB.MAC()
		app.mtu = env.PortB.MTU()
	}
	dstMAC, err := env.Net.Resolver().Resolve(app.remote.IP)
	check(err, "arp")
	app.dstMAC = dstMAC
	return app
}

// buildFrame allocates an mbuf from the mempool and writes the full
// Ethernet/IPv4/UDP frame around the payload by hand. The returned
// packet carries the slot; allocation failure panics (check), so the
// acquire is unconditional.
//
//insane:acquire resource=mem-slot
func (app *dpdkApp) buildFrame(payload []byte) *datapath.Packet {
	slot, buf, err := app.mem.Get(netstack.HeadersLen+len(payload), mempool.NoOwner)
	check(err, "mbuf alloc")
	copy(buf[netstack.HeadersLen:], payload)
	meta := netstack.FrameMeta{
		SrcMAC: app.srcMAC,
		DstMAC: app.dstMAC,
		Src:    app.local,
		Dst:    app.remote,
	}
	n, err := netstack.EncodeUDP(buf, meta, len(payload), app.mtu)
	check(err, "frame encode")
	return &datapath.Packet{
		Slot: slot, Buf: buf,
		Off: 0, Len: n, Framed: true,
	}
}

// parseFrame validates an inbound frame and extracts the UDP payload,
// dropping anything not addressed to this application.
func (app *dpdkApp) parseFrame(pkt *datapath.Packet) ([]byte, bool) {
	meta, payload, err := netstack.DecodeUDP(pkt.Bytes())
	if err != nil {
		app.mem.Release(pkt.Slot)
		return nil, false
	}
	if meta.Dst.Port != app.local.Port || meta.Dst.IP != app.local.IP {
		app.mem.Release(pkt.Slot)
		return nil, false
	}
	return payload, true
}

// txOne pushes one frame through the TX burst API. The sim datapath
// copies the frame on Send, so the mbuf slot is released here on both
// the success and the failure path.
//
//insane:release resource=mem-slot
func (app *dpdkApp) txOne(pkt *datapath.Packet) bool {
	sent, err := app.port.Send([]*datapath.Packet{pkt}, app.remote)
	if err != nil || sent != 1 {
		app.mem.Release(pkt.Slot)
		return false
	}
	app.mem.Release(pkt.Slot)
	return true
}

// rxOne busy-polls the RX ring until a valid frame for this app arrives.
func (app *dpdkApp) rxOne() *datapath.Packet {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		n, err := app.port.Poll(app.rxBurst[:])
		if err != nil {
			return nil
		}
		for i := 0; i < n; i++ {
			if _, ok := app.parseFrame(&app.rxBurst[i]); ok {
				return &app.rxBurst[i]
			}
		}
	}
	return nil
}

// DPDKPingPong measures rounds round trips of payload bytes against the
// raw DPDK interface.
func DPDKPingPong(env *Env, payload, rounds int) []time.Duration {
	client := dpdkInit(env, true)
	defer client.port.Close()
	server := dpdkInit(env, false)
	defer server.port.Close()

	// Echo lcore: rx burst → rebuild the frame in a fresh mbuf with
	// swapped addressing → tx burst.
	serverDone := make(chan struct{})
	go func() {
		defer close(serverDone)
		for i := 0; i < rounds; i++ {
			req := server.rxOne()
			if req == nil {
				return
			}
			_, reqPayload, err := netstack.DecodeUDP(req.Bytes())
			if err != nil {
				server.mem.Release(req.Slot)
				return
			}
			echo := server.buildFrame(reqPayload)
			echo.Breakdown = req.Breakdown
			server.mem.Release(req.Slot)
			if !server.txOne(echo) {
				return
			}
		}
	}()

	// Client lcore: tx, spin on rx, record the round trip.
	rtts := make([]time.Duration, 0, rounds)
	msg := make([]byte, payload)
	for i := 0; i < rounds; i++ {
		frame := client.buildFrame(msg)
		if !client.txOne(frame) {
			break
		}
		pong := client.rxOne()
		if pong == nil {
			break
		}
		rtts = append(rtts, pong.Breakdown.Total())
		client.mem.Release(pong.Slot)
	}
	<-serverDone
	return rtts
}
