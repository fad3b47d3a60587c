// Package apps contains the three versions of the paper's benchmarking
// application (§6.2, Table 3): one against the INSANE API, one against
// UDP sockets, and one against native DPDK. The INSANE version needs the
// least networking code — that comparison *is* Table 3, so each version
// lives in its own file and the harness counts their lines.
//
// This file provides the shared test environment (the testbed hardware,
// which Table 3 does not count as application code).
package apps

import (
	"fmt"

	"github.com/insane-mw/insane/internal/fabric"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
)

// Env is a two-host testbed: the "hardware" each benchmark app runs on.
type Env struct {
	Net     *fabric.Network
	PortA   *fabric.Port
	PortB   *fabric.Port
	AddrA   netstack.Endpoint
	AddrB   netstack.Endpoint
	Testbed model.Testbed
	MemA    *mempool.Manager
	MemB    *mempool.Manager
}

// NewEnv wires two hosts for a testbed: a direct cable locally, through a
// switch in the cloud profile (Table 2).
func NewEnv(tb model.Testbed) (*Env, error) {
	net := fabric.New(7)
	ipA, ipB := netstack.IPv4{10, 1, 0, 1}, netstack.IPv4{10, 1, 0, 2}
	pa, err := net.AddHost("bench-a", ipA)
	if err != nil {
		return nil, err
	}
	pb, err := net.AddHost("bench-b", ipB)
	if err != nil {
		return nil, err
	}
	link := fabric.LinkParams{Rate: tb.LinkRate, PropDelay: tb.PropDelay, MTU: netstack.JumboMTU}
	if tb.SwitchLatency > 0 {
		sw := net.AddSwitch("tor", fabric.SwitchParams{Latency: tb.SwitchLatency})
		if err := net.ConnectToSwitch(pa, sw, link); err != nil {
			return nil, err
		}
		if err := net.ConnectToSwitch(pb, sw, link); err != nil {
			return nil, err
		}
	} else if err := net.ConnectDirect(pa, pb, link); err != nil {
		return nil, err
	}
	ma, err := mempool.NewManager(mempool.Config{})
	if err != nil {
		return nil, err
	}
	mb, err := mempool.NewManager(mempool.Config{})
	if err != nil {
		return nil, err
	}
	return &Env{
		Net: net, PortA: pa, PortB: pb,
		AddrA:   netstack.Endpoint{IP: ipA, Port: 9000},
		AddrB:   netstack.Endpoint{IP: ipB, Port: 9000},
		Testbed: tb, MemA: ma, MemB: mb,
	}, nil
}

// check panics on setup errors: benchmark apps treat environment failures
// as fatal, like the C originals exiting on rte_eal_init failure.
func check(err error, what string) {
	if err != nil {
		panic(fmt.Sprintf("bench app: %s: %v", what, err))
	}
}
