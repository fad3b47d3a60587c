package insane

import (
	"reflect"
	"slices"
	"testing"

	"github.com/insane-mw/insane/internal/qos"
)

// TestOptionsSetTheContract: each With* option sets one field of the
// stream's QoS contract and nothing else, a later option overrides an
// earlier one, and the contract of no options is the zero one, which maps
// to kernel UDP. A mapping strategy receives the node's technology names;
// "" or a name the node lacks falls back to the default map (RDMA for a
// fast stream on this node), and one that picks the kernel for a fast
// stream reports the fallback.
func TestOptionsSetTheContract(t *testing.T) {
	c, err := NewCluster(ClusterOptions{Nodes: []NodeSpec{{Name: "edge", DPDK: true, RDMA: true}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	node := c.Node("edge")
	sess, err := node.InitSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var offered []string
	pick := func(name string) func([]string) string {
		return func(available []string) string {
			offered = available
			return name
		}
	}
	cases := []struct {
		name   string
		opts   []Option
		want   qos.Options // Mapper aside: mapped says whether one is set
		mapped bool
		tech   string
		fell   bool
	}{
		{name: "no options", want: qos.Options{}, tech: "kernel-udp"},
		{name: "WithDatapath", opts: []Option{WithDatapath(Fast)},
			want: qos.Options{Datapath: qos.DatapathFast}, tech: "rdma"},
		{name: "WithResources", opts: []Option{WithResources(Frugal)},
			want: qos.Options{Resources: qos.ResourcesConstrained}, tech: "kernel-udp"},
		{name: "WithTiming", opts: []Option{WithTiming(TimeSensitive)},
			want: qos.Options{Timing: qos.TimingSensitive}, tech: "kernel-udp"},
		{name: "WithClass", opts: []Option{WithClass(7)},
			want: qos.Options{Class: 7}, tech: "kernel-udp"},
		{name: "WithTelemetry(false)", opts: []Option{WithTelemetry(false)},
			want: qos.Options{NoTelemetry: true}, tech: "kernel-udp"},
		{name: "WithRunToCompletion", opts: []Option{WithRunToCompletion(true)},
			want: qos.Options{RunToCompletion: true}, tech: "kernel-udp"},
		{name: "later option wins", opts: []Option{WithDatapath(Fast), WithClass(3), WithTelemetry(false), WithDatapath(Slow), WithTelemetry(true)},
			want: qos.Options{Class: 3}, tech: "kernel-udp"},
		{name: "WithMapper", opts: []Option{WithDatapath(Fast), WithMapper(pick("dpdk"))},
			want: qos.Options{Datapath: qos.DatapathFast}, mapped: true, tech: "dpdk"},
		{name: "WithMapper picking the kernel", opts: []Option{WithDatapath(Fast), WithMapper(pick("kernel-udp"))},
			want: qos.Options{Datapath: qos.DatapathFast}, mapped: true, tech: "kernel-udp", fell: true},
		{name: "WithMapper answering nothing", opts: []Option{WithDatapath(Fast), WithMapper(pick(""))},
			want: qos.Options{Datapath: qos.DatapathFast}, mapped: true, tech: "rdma"},
		{name: "WithMapper naming an absent technology", opts: []Option{WithDatapath(Fast), WithMapper(pick("xdp"))},
			want: qos.Options{Datapath: qos.DatapathFast}, mapped: true, tech: "rdma"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got qos.Options
			for _, opt := range tc.opts {
				opt(&got)
			}
			if (got.Mapper != nil) != tc.mapped {
				t.Errorf("mapper set = %v, want %v", got.Mapper != nil, tc.mapped)
			}
			got.Mapper = nil
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("contract = %+v, want %+v", got, tc.want)
			}

			offered = nil
			st, err := sess.CreateStreamOpts(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if st.Technology() != tc.tech || st.FellBack() != tc.fell {
				t.Errorf("mapped to %s, fell back %v; want %s, %v", st.Technology(), st.FellBack(), tc.tech, tc.fell)
			}
			if !tc.mapped {
				return
			}
			want := node.Technologies()
			slices.Sort(want)
			slices.Sort(offered)
			if !slices.Equal(offered, want) {
				t.Errorf("mapper offered %v, want the node's %v", offered, want)
			}
		})
	}
}
