package qos

import (
	"slices"
	"testing"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/model"
)

func TestDefaultMapSlowAlwaysKernel(t *testing.T) {
	full := datapath.Caps{DPDK: true, XDP: true, RDMA: true}
	tech, fb := DefaultMap(Options{Datapath: DatapathSlow}, full)
	if tech != model.TechKernelUDP || fb {
		t.Errorf("slow on full caps = %v,%v, want kernel,false", tech, fb)
	}
}

func TestDefaultMapPreferenceOrder(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		caps datapath.Caps
		want model.Tech
		fb   bool
	}{
		{"rdma wins when present", Options{Datapath: DatapathFast},
			datapath.Caps{DPDK: true, XDP: true, RDMA: true}, model.TechRDMA, false},
		{"dpdk when no rdma, resources free", Options{Datapath: DatapathFast},
			datapath.Caps{DPDK: true, XDP: true}, model.TechDPDK, false},
		{"xdp when resources constrained", Options{Datapath: DatapathFast, Resources: ResourcesConstrained},
			datapath.Caps{DPDK: true, XDP: true}, model.TechXDP, false},
		{"rdma beats xdp even constrained", Options{Datapath: DatapathFast, Resources: ResourcesConstrained},
			datapath.Caps{XDP: true, RDMA: true}, model.TechRDMA, false},
		{"constrained skips dpdk-only host", Options{Datapath: DatapathFast, Resources: ResourcesConstrained},
			datapath.Caps{DPDK: true}, model.TechKernelUDP, true},
		{"xdp as last accelerated resort", Options{Datapath: DatapathFast},
			datapath.Caps{XDP: true}, model.TechXDP, false},
		{"fallback with warning on bare host", Options{Datapath: DatapathFast},
			datapath.Caps{}, model.TechKernelUDP, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tech, fb := DefaultMap(c.opts, c.caps)
			if tech != c.want || fb != c.fb {
				t.Errorf("DefaultMap = %v,%v, want %v,%v", tech, fb, c.want, c.fb)
			}
		})
	}
}

func TestMapUsesCustomMapper(t *testing.T) {
	var offered []string
	opts := Options{
		Datapath: DatapathFast,
		Mapper: func(available []string) string {
			offered = available
			return "xdp"
		},
	}
	tech, fb := Map(opts, datapath.Caps{XDP: true, RDMA: true})
	if tech != model.TechXDP || fb {
		t.Errorf("custom mapper not honored: %v,%v", tech, fb)
	}
	if want := []string{"kernel-udp", "xdp", "rdma"}; !slices.Equal(offered, want) {
		t.Errorf("mapper offered %v, want %v", offered, want)
	}
}

func TestMapDefaultsZeroValue(t *testing.T) {
	tech, fb := Map(Options{}, datapath.Caps{DPDK: true})
	if tech != model.TechKernelUDP || fb {
		t.Errorf("zero options = %v,%v, want kernel,false", tech, fb)
	}
}

func TestValidate(t *testing.T) {
	good := []Options{
		{},
		{Datapath: DatapathFast, Resources: ResourcesConstrained, Timing: TimingSensitive, Class: 7},
	}
	for i, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("good[%d]: %v", i, err)
		}
	}
	bad := []Options{
		{Datapath: -1},
		{Datapath: 99},
		{Resources: 99},
		{Timing: 99},
		{Class: 8},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad[%d]: want error", i)
		}
	}
}

func TestStringers(t *testing.T) {
	if DatapathFast.String() != "fast" || Datapath(0).String() != "slow" || Datapath(9).String() != "unknown" {
		t.Error("Datapath.String")
	}
	if ResourcesConstrained.String() != "constrained" || Resources(9).String() != "unknown" {
		t.Error("Resources.String")
	}
	if TimingSensitive.String() != "time-sensitive" || Timing(9).String() != "unknown" {
		t.Error("Timing.String")
	}
	got := Options{Datapath: DatapathFast, Timing: TimingSensitive, Class: 3}.String()
	want := "datapath=fast resources=unconstrained timing=time-sensitive class=3"
	if got != want {
		t.Errorf("Options.String = %q, want %q", got, want)
	}
}
