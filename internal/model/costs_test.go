package model

import (
	"reflect"
	"testing"
)

// charges reports whether a component adds anything to a packet's clock.
func charges(c Component) bool {
	return c.Fixed != 0 || c.Amort != 0 || c.PerByteNs != 0 || c.LatencyOnly != 0
}

// components lists every Component field of a cost profile struct.
func components(profile any) []Component {
	v := reflect.ValueOf(profile)
	var out []Component
	for i := 0; i < v.NumField(); i++ {
		if c, ok := v.Field(i).Interface().(Component); ok {
			out = append(out, c)
		}
	}
	return out
}

// TestEveryCostHasACategory: a message's virtual clock is its Fig. 6
// breakdown alone, and a charge lands in the stage its component's
// category names, so a costed component without one of the four
// categories would vanish from every latency figure without a trace.
func TestEveryCostHasACategory(t *testing.T) {
	var all []Component
	for _, tech := range []Tech{TechKernelUDP, TechXDP, TechDPDK, TechRDMA} {
		all = append(all, components(Costs(tech))...)
	}
	all = append(all, components(DefaultRuntimeCosts())...)
	all = append(all, CatnapLib().PerSide, CatnipLib().PerSide)
	for sys := SysUDPBlocking; sys <= SysInsaneRDMA; sys++ {
		for _, st := range Build(sys).Stages {
			all = append(all, st.Comps...)
		}
	}
	if len(all) < 40 {
		t.Fatalf("only %d components found: the profiles were not walked", len(all))
	}
	for _, c := range all {
		if charges(c) && (c.Category < CatSend || c.Category > CatProcessing) {
			t.Errorf("component %q costs time but has category %d", c.Name, c.Category)
		}
	}
}
