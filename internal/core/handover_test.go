package core

import (
	"bytes"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/qos"
	"github.com/insane-mw/insane/internal/telemetry"
	"github.com/insane-mw/insane/internal/timebase"
)

// TestReferencesHandedOver: a message holds one slot reference per local
// sink and no more. With no remote peer, the reference Emit handed the
// runtime becomes the first sink's (dispatch, emitRTC); with one, the token
// keeps its own across the send and drops it after. Either way the slot
// stays live until exactly its last sink releases it, a full sink ring
// drops exactly its own reference and no other sink's, and the pools and
// the tenant's slot budget come back to where they were.
func TestReferencesHandedOver(t *testing.T) {
	const channel = 41
	payload := []byte("handover")
	for _, tc := range []struct {
		name   string
		opts   qos.Options
		local  int
		remote bool
		full   int // index of the local sink whose ring is full; -1: none
	}{
		{name: "queued, 1 sink", local: 1, full: -1},
		{name: "queued, 3 sinks", local: 3, full: -1},
		{name: "queued, 1 sink and 1 remote peer", local: 1, remote: true, full: -1},
		{name: "run to completion, 4 sinks", opts: rtcOpts, local: 4, full: -1},
		{name: "queued, 3 sinks, second ring full", local: 3, full: 1},
		{name: "queued, 1 sink and 1 remote peer, ring full", local: 1, remote: true, full: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newStepped(t, datapath.Caps{}, datapath.Caps{}, func(c *Config) {
				c.Tenants = []TenantSpec{{Name: "acme", MemSlots: 64}}
			})
			// Past the default gate list's class-7-only window, which holds
			// best effort back once there are two tenants.
			w.Set(timebase.VTime(100 * time.Microsecond))
			conn, err := w.a.ConnectTenant("acme")
			if err != nil {
				t.Fatal(err)
			}
			stream, err := conn.OpenStream(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			sinks := make([]*SinkHandle, tc.local)
			for i := range sinks {
				if sinks[i], err = stream.CreateSink(channel); err != nil {
					t.Fatal(err)
				}
			}
			var remote *SinkHandle
			if tc.remote {
				connB, _ := w.b.Connect()
				streamB, _ := connB.OpenStream(tc.opts)
				if remote, err = streamB.CreateSink(channel); err != nil {
					t.Fatal(err)
				}
				w.Settle() // the SUB
			}
			src, err := stream.CreateSource(channel)
			if err != nil {
				t.Fatal(err)
			}
			if tc.full >= 0 {
				defer fillRing(sinks[tc.full])()
			}

			mm := w.a.Mem()
			freeA, freeB, used := totalFree(w.a), totalFree(w.b), conn.ten.budget.Used()
			before := w.a.tel.Snapshot()
			var b Buffer
			if err := src.GetBuffer(&b, len(payload)); err != nil {
				t.Fatal(err)
			}
			copy(b.Payload, payload)
			slot := b.Slot
			seq, err := src.Emit(&b, len(payload))
			if err != nil {
				t.Fatal(err)
			}
			w.Settle()

			after := w.a.tel.Snapshot()
			moved := func(c telemetry.CounterID) uint64 { return after.Counters[c] - before.Counters[c] }
			served, drops, peers := tc.local, uint64(0), 0
			if tc.full >= 0 {
				served, drops = tc.local-1, 1
			}
			if tc.remote {
				peers = 1
			}
			if got := moved(telemetry.CtrRingFullDrops); got != drops {
				t.Errorf("drops_ring_full moved by %d, want %d", got, drops)
			}
			if got := moved(telemetry.CtrLocalDeliveries); got != uint64(served) {
				t.Errorf("local_deliveries moved by %d, want %d", got, served)
			}
			rtcServed := uint64(0)
			if tc.opts.RunToCompletion {
				rtcServed = uint64(served)
			}
			if got := moved(telemetry.CtrRTCDeliveries); got != rtcServed {
				t.Errorf("rtc_deliveries moved by %d, want %d", got, rtcServed)
			}
			if o, ok := src.Outcome(seq); !ok || o.LocalSinks != tc.local || o.RemotePeers != peers || o.Err != nil {
				t.Errorf("outcome = %+v (recorded %v), want %d local sinks and %d peers", o, ok, tc.local, peers)
			}

			if remote != nil {
				var d Delivery
				if err := remote.TryConsume(&d); err != nil {
					t.Fatalf("remote sink: %v", err)
				}
				if !bytes.Equal(d.Payload, payload) {
					t.Errorf("remote payload = %q", d.Payload)
				}
				remote.Release(&d)
				if free := totalFree(w.b); free != freeB {
					t.Errorf("node B: %d free slots after the remote release, want %d", free, freeB)
				}
			}
			held := make([]Delivery, len(sinks))
			for i, k := range sinks {
				if i == tc.full {
					continue
				}
				d := &held[i]
				if err := k.TryConsume(d); err != nil {
					t.Fatalf("sink %d: %v", i, err)
				}
				if d.Slot != slot || !bytes.Equal(d.Payload, payload) {
					t.Fatalf("sink %d: slot %v payload %q, want %v %q", i, d.Slot, d.Payload, slot, payload)
				}
			}
			for i, k := range sinks {
				if i == tc.full {
					continue
				}
				if _, err := mm.Buf(slot, mempool.NoOwner); err != nil {
					t.Fatalf("slot dead before sink %d released it: %v", i, err)
				}
				if free := totalFree(w.a); free != freeA-1 {
					t.Fatalf("%d free slots before sink %d released, want %d", free, i, freeA-1)
				}
				k.Release(&held[i])
			}
			if _, err := mm.Buf(slot, mempool.NoOwner); err == nil {
				t.Error("slot still live after its last sink released it")
			}
			if free := totalFree(w.a); free != freeA {
				t.Errorf("node A: %d free slots after the last release, want %d", free, freeA)
			}
			if got := conn.ten.budget.Used(); got != used {
				t.Errorf("tenant mem used = %d after the last release, want %d", got, used)
			}
		})
	}
}
