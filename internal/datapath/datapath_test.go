package datapath

import (
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/model"
)

func TestPacketBytes(t *testing.T) {
	buf := []byte{0, 1, 2, 3, 4, 5, 6, 7}
	p := &Packet{Buf: buf, Off: 2, Len: 3}
	got := p.Bytes()
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Errorf("Bytes = %v", got)
	}
}

func TestChargeCategories(t *testing.T) {
	mk := func(cat model.Category) *model.Component {
		return &model.Component{Name: "c", Category: cat, Fixed: 100}
	}
	p := &Packet{}
	p.Charge(mk(model.CatSend), 0, 1, &model.Local)
	p.Charge(mk(model.CatNetwork), 0, 1, &model.Local)
	p.Charge(mk(model.CatRecv), 0, 1, &model.Local)
	p.Charge(mk(model.CatProcessing), 0, 1, &model.Local)
	if p.VTime.Duration() != 400 {
		t.Errorf("vtime = %v, want 400ns", p.VTime)
	}
	bd := p.Breakdown
	if bd.Send != 100 || bd.Network != 100 || bd.Recv != 100 || bd.Processing != 100 {
		t.Errorf("breakdown = %+v", bd)
	}
	if bd.Total() != p.VTime.Duration() {
		t.Error("breakdown does not sum to vtime")
	}
}

func TestChargeAmortization(t *testing.T) {
	c := &model.Component{Name: "a", Category: model.CatSend, Fixed: 100, Amort: 320}
	single := &Packet{}
	single.Charge(c, 0, 1, &model.Local)
	burst := &Packet{}
	burst.Charge(c, 0, 32, &model.Local)
	if single.VTime.Duration() != 420 {
		t.Errorf("single charge = %v, want 420ns", single.VTime)
	}
	if burst.VTime.Duration() != 110 {
		t.Errorf("burst charge = %v, want 110ns", burst.VTime)
	}
}

func TestChargeOccupancyOnlySkipsLatency(t *testing.T) {
	c := &model.Component{Name: "reap", Category: model.CatSend, Amort: 400, OccupancyOnly: true}
	p := &Packet{}
	p.Charge(c, 0, 1, &model.Local)
	if p.VTime != 0 || p.Breakdown.Total() != 0 {
		t.Error("occupancy-only work charged to the latency clock")
	}
}

func TestChargeLatencyOnlyWaits(t *testing.T) {
	c := &model.Component{Name: "wait", Category: model.CatRecv, Class: model.ScaleKernel, LatencyOnly: 1000}
	p := &Packet{}
	p.Charge(c, 0, 32, &model.Cloud) // burst must not amortize waits
	want := time.Duration(1600)      // 1000 × 1.6 kernel scale
	if p.VTime.Duration() != want {
		t.Errorf("wait charge = %v, want %v", p.VTime, want)
	}
}

func TestConfigEffectiveBurst(t *testing.T) {
	if (Config{}).EffectiveBurst() != model.DefaultBurst {
		t.Error("default burst wrong")
	}
	if (Config{Burst: 4}).EffectiveBurst() != 4 {
		t.Error("explicit burst ignored")
	}
}

func TestCapsListOrder(t *testing.T) {
	caps := Caps{DPDK: true, XDP: true, RDMA: true}
	list := caps.List()
	want := []model.Tech{model.TechKernelUDP, model.TechXDP, model.TechDPDK, model.TechRDMA}
	if len(list) != len(want) {
		t.Fatalf("list = %v", list)
	}
	for i := range want {
		if list[i] != want[i] {
			t.Errorf("list[%d] = %v, want %v", i, list[i], want[i])
		}
	}
	if (Caps{}).Has(model.Tech(99)) {
		t.Error("unknown tech reported available")
	}
}
