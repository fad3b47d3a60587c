package apps

// The UDP-socket version of the benchmarking application (Table 3 row
// "UDP socket"): everything below is what a developer writes against a
// plain socket API — explicit socket setup on both ends, a send path, a
// receive loop with optional blocking, buffer management by hand.

import (
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/model"
)

// UDPPingPong measures rounds round trips of payload bytes over plain
// UDP sockets, blocking or busy-polling the receive side.
func UDPPingPong(env *Env, payload, rounds int, blocking bool) []time.Duration {
	// Socket setup, client side.
	client, err := datapath.Open(model.TechKernelUDP, datapath.Config{
		Port:     env.PortA,
		Resolver: env.Net.Resolver(),
		Local:    env.AddrA,
		Mem:      env.MemA,
		Testbed:  env.Testbed,
		Blocking: blocking,
	})
	check(err, "client socket")
	defer client.Close()

	// Socket setup, server side.
	server, err := datapath.Open(model.TechKernelUDP, datapath.Config{
		Port:     env.PortB,
		Resolver: env.Net.Resolver(),
		Local:    env.AddrB,
		Mem:      env.MemB,
		Testbed:  env.Testbed,
		Blocking: blocking,
	})
	check(err, "server socket")
	defer server.Close()

	// The echo server: receive a datagram, send it straight back,
	// preserving the virtual clock for RTT accounting.
	serverDone := make(chan struct{})
	go func() {
		defer close(serverDone)
		var rx [1]datapath.Packet
		for i := 0; i < rounds; i++ {
			req := udpReceiveOne(server, blocking, rx[:])
			if req == nil {
				return
			}
			echo := udpNewPacket(env.MemB, req.Bytes())

			echo.Breakdown = req.Breakdown
			_, err := server.Send([]*datapath.Packet{echo}, env.AddrA)
			env.MemB.Release(echo.Slot)
			env.MemB.Release(req.Slot)
			if err != nil {
				return
			}
		}
	}()

	// The client: send, wait for the echo, record the round trip.
	rtts := make([]time.Duration, 0, rounds)
	buf := make([]byte, payload)
	var rx [1]datapath.Packet
	for i := 0; i < rounds; i++ {
		msg := udpNewPacket(env.MemA, buf)
		_, err := client.Send([]*datapath.Packet{msg}, env.AddrB)
		env.MemA.Release(msg.Slot)
		if err != nil {
			break
		}
		pong := udpReceiveOne(client, blocking, rx[:])
		if pong == nil {
			break
		}
		rtts = append(rtts, pong.Breakdown.Total())
		env.MemA.Release(pong.Slot)
	}
	<-serverDone
	return rtts
}

// udpNewPacket copies payload into a fresh datagram buffer. The
// returned packet carries the slot; allocation failure panics (check),
// so the acquire is unconditional.
//
//insane:acquire resource=mem-slot
func udpNewPacket(mm *mempool.Manager, payload []byte) *datapath.Packet {
	slot, buf, err := mm.Get(datapath.Headroom+len(payload), mempool.NoOwner)
	check(err, "datagram buffer")
	copy(buf[datapath.Headroom:], payload)
	return &datapath.Packet{Slot: slot, Buf: buf, Off: datapath.Headroom, Len: len(payload)}
}

// udpReceiveOne spins (or blocks) until one datagram arrives in rx[0];
// the caller owns its slot.
func udpReceiveOne(sock *datapath.Endpoint, blocking bool, rx []datapath.Packet) *datapath.Packet {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if blocking {
			if err := sock.WaitRecv(time.Until(deadline)); err != nil {
				return nil
			}
		}
		n, err := sock.Poll(rx[:1])
		if err != nil {
			return nil
		}
		if n == 1 {
			return &rx[0]
		}
	}
	return nil
}
