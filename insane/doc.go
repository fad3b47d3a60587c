// Package insane is the public API of the INSANE middleware reproduction:
// a unified, QoS-aware interface to heterogeneous network acceleration
// technologies for edge cloud applications (Rosa, Garbugli, Corradi,
// Bellavista — Middleware '23).
//
// # Programming model
//
// Applications never touch a network technology directly. They open a
// Session with the local runtime, create Streams annotated with high-level
// QoS options (datapath acceleration, resource consumption, time
// sensitiveness), and open Sources and Sinks on numeric channels inside a
// stream. The runtime maps every stream to the most appropriate technology
// available on the node — RDMA, DPDK, XDP or kernel UDP — at stream
// creation time, so the same binary runs unmodified on heterogeneous edge
// nodes and keeps working after migration.
//
// A stream's QoS contract is set only by Option values passed to
// CreateStreamOpts — WithDatapath, WithResources, WithTiming, WithClass,
// WithMapper, WithTelemetry and WithRunToCompletion — a later one
// overriding an earlier one. Each policy's default is its zero value
// (Slow, WhateverItTakes, BestEffort), so no option at all asks for
// kernel networking.
//
// All data movement is asynchronous and zero-copy: a Source borrows a
// Buffer from the runtime's memory pools, writes the payload in place and
// Emits it; a Sink either registers a callback or Consumes deliveries,
// releasing each buffer when done. There is no after-write protection:
// never touch a buffer after Emit.
//
// # Quick start
//
//	cluster, _ := insane.NewCluster(insane.ClusterOptions{
//		Nodes: []insane.NodeSpec{
//			{Name: "edge-1", DPDK: true},
//			{Name: "edge-2", DPDK: true},
//		},
//	})
//	defer cluster.Close()
//
//	sess, _ := cluster.Node("edge-1").InitSession()
//	stream, _ := sess.CreateStreamOpts(insane.WithDatapath(insane.Fast))
//	src, _ := stream.CreateSource(42)
//
//	buf, _ := src.GetBuffer(64)
//	copy(buf.Payload, "hello")
//	src.Emit(buf, 5)
//
// The virtual fabric underneath (internal/fabric) stands in for the NICs
// and switches of the paper's testbeds; all timing is reported in
// calibrated virtual time (see DESIGN.md).
package insane
