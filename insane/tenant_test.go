package insane_test

// Tests for the multi-tenant API (DESIGN.md §12): tenant binding at
// session creation, the admission matrix (unknown tenant, slot budget,
// TX token cap), the MaxClass ceiling, and per-tenant telemetry under
// concurrent emit.

import (
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/insane-mw/insane/insane"
)

// tenantCluster builds a single-node cluster with the given tenants.
func tenantCluster(t *testing.T, tenants []insane.TenantSpec, spec insane.NodeSpec) *insane.Cluster {
	t.Helper()
	spec.Name = "edge"
	c, err := insane.NewCluster(insane.ClusterOptions{
		Nodes:   []insane.NodeSpec{spec},
		Tenants: tenants,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestTenantBinding(t *testing.T) {
	c := tenantCluster(t, []insane.TenantSpec{{ID: "video", Weight: 3}}, insane.NodeSpec{})
	node := c.Node("edge")

	// Zero-argument InitSession keeps working and binds the default tenant.
	def, err := node.InitSession()
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if def.Tenant() != "" {
		t.Errorf("default session tenant = %q, want \"\"", def.Tenant())
	}

	sess, err := node.InitSession(insane.WithTenant("video"))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Tenant() != "video" {
		t.Errorf("session tenant = %q, want \"video\"", sess.Tenant())
	}

	// An undeclared tenant is rejected with the package's own sentinel.
	if _, err := node.InitSession(insane.WithTenant("ghost")); !errors.Is(err, insane.ErrUnknownTenant) {
		t.Errorf("unknown tenant session = %v, want ErrUnknownTenant", err)
	}
}

// TestTenantMemQuota exhausts a 2-slot budget and checks the sentinel,
// the recovery after release, and the quota gauges in Node.Metrics().
func TestTenantMemQuota(t *testing.T) {
	c := tenantCluster(t, []insane.TenantSpec{{ID: "small", MemSlots: 2}}, insane.NodeSpec{})
	node := c.Node("edge")
	sess, err := node.InitSession(insane.WithTenant("small"))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.CreateStreamOpts()
	if err != nil {
		t.Fatal(err)
	}
	src, err := st.CreateSource(9)
	if err != nil {
		t.Fatal(err)
	}

	b1, err := src.GetBuffer(64)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := src.GetBuffer(64)
	if err != nil {
		t.Fatal(err)
	}
	// Third borrow trips the tenant's own budget, not node exhaustion —
	// and by value, so the hot path stayed allocation-free.
	if _, err := src.GetBuffer(64); err != insane.ErrTenantQuota || !errors.Is(err, insane.ErrTenantQuota) {
		t.Fatalf("over-budget GetBuffer = %v, want ErrTenantQuota by value", err)
	}

	m := node.Metrics()
	if len(m.Tenants) != 1 {
		t.Fatalf("Metrics().Tenants = %d entries, want 1", len(m.Tenants))
	}
	ten := m.Tenants[0]
	if ten.Tenant != "small" {
		t.Errorf("tenant name = %q", ten.Tenant)
	}
	if ten.MemUsed != 2 || ten.MemLimit != 2 {
		t.Errorf("mem gauges = %d/%d, want 2/2", ten.MemUsed, ten.MemLimit)
	}
	if ten.QuotaRejects == 0 {
		t.Error("QuotaRejects = 0 after a refused borrow")
	}

	// Releasing a slot restores admission.
	src.Abort(b1)
	b3, err := src.GetBuffer(64)
	if err != nil {
		t.Fatalf("GetBuffer after release = %v", err)
	}
	src.Abort(b2)
	src.Abort(b3)
	if got := node.Metrics().Tenants[0].MemUsed; got != 0 {
		t.Errorf("MemUsed after releasing everything = %d, want 0", got)
	}
}

// TestTenantTxQuota parks one packet behind a permanently closed TSN
// gate so its TX token stays charged, then checks the second emit is
// refused with ErrTenantQuota.
func TestTenantTxQuota(t *testing.T) {
	// Class 7 only, for an hour: a class-0 time-sensitive packet never
	// leaves the scheduler, so its in-flight token is never returned.
	spec := insane.NodeSpec{TSNSchedule: []insane.GateWindow{{Duration: time.Hour, Classes: 1 << 7}}}
	c := tenantCluster(t, []insane.TenantSpec{{ID: "tiny", TxTokens: 1}}, spec)
	node := c.Node("edge")
	sess, err := node.InitSession(insane.WithTenant("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.CreateStreamOpts(insane.WithTiming(insane.TimeSensitive), insane.WithClass(0))
	if err != nil {
		t.Fatal(err)
	}
	src, err := st.CreateSource(11)
	if err != nil {
		t.Fatal(err)
	}

	b1, err := src.GetBuffer(32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Emit(b1, 32); err != nil {
		t.Fatalf("first emit = %v", err)
	}
	b2, err := src.GetBuffer(32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Emit(b2, 32); err != insane.ErrTenantQuota || !errors.Is(err, insane.ErrTenantQuota) {
		t.Fatalf("second emit = %v, want ErrTenantQuota by value", err)
	}
	src.Abort(b2)

	ten := node.Metrics().Tenants[0]
	if ten.TxInflight != 1 || ten.TxLimit != 1 {
		t.Errorf("tx gauges = %d/%d, want 1/1", ten.TxInflight, ten.TxLimit)
	}
	if ten.QuotaRejects == 0 {
		t.Error("QuotaRejects = 0 after a refused emit")
	}
}

// TestTenantClassCeiling checks MaxClass clamps a hotter class down and
// leaves a visible warning.
func TestTenantClassCeiling(t *testing.T) {
	c := tenantCluster(t, []insane.TenantSpec{{ID: "capped", MaxClass: 5}}, insane.NodeSpec{})
	node := c.Node("edge")
	sess, err := node.InitSession(insane.WithTenant("capped"))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.CreateStreamOpts(insane.WithTiming(insane.TimeSensitive), insane.WithClass(7)); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range node.Warnings() {
		if strings.Contains(w, "class") {
			found = true
		}
	}
	if !found {
		t.Errorf("no class-clamp warning recorded; warnings = %v", node.Warnings())
	}
}

// TestTenantMetricsConcurrent hammers two tenants from concurrent
// emitters while snapshotting Metrics() in parallel; final per-tenant
// counters must account for every message. Run under -race this also
// proves the per-tenant shards and gauges are data-race free.
func TestTenantMetricsConcurrent(t *testing.T) {
	const perTenant = 400
	c := tenantCluster(t, []insane.TenantSpec{
		{ID: "gold", Weight: 3},
		{ID: "bronze", Weight: 1},
	}, insane.NodeSpec{})
	node := c.Node("edge")

	type lane struct {
		id   insane.TenantID
		sess *insane.Session
		src  *insane.Source
		sink *insane.Sink
	}
	lanes := make([]*lane, 0, 2)
	for i, id := range []insane.TenantID{"gold", "bronze"} {
		sess, err := node.InitSession(insane.WithTenant(id))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		st, err := sess.CreateStreamOpts()
		if err != nil {
			t.Fatal(err)
		}
		ch := 21 + i
		sink, err := st.CreateSink(ch, nil)
		if err != nil {
			t.Fatal(err)
		}
		src, err := st.CreateSource(ch)
		if err != nil {
			t.Fatal(err)
		}
		lanes = append(lanes, &lane{id: id, sess: sess, src: src, sink: sink})
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 2*len(lanes))
	stopSnaps := make(chan struct{})
	snapsDone := make(chan struct{})
	go func() { // concurrent snapshot reader, joined separately below
		defer close(snapsDone)
		for {
			select {
			case <-stopSnaps:
				return
			default:
			}
			_ = node.Metrics()
			runtime.Gosched()
		}
	}()
	for _, l := range lanes {
		wg.Add(2)
		go func(l *lane) {
			defer wg.Done()
			for n := 0; n < perTenant; n++ {
				var buf *insane.Buffer
				for {
					var err error
					if buf == nil {
						buf, err = l.src.GetBuffer(64)
					}
					if err == nil {
						if _, err = l.src.Emit(buf, 64); err == nil {
							break
						}
						if !errors.Is(err, insane.ErrBackpressure) {
							errCh <- err
							return
						}
					} else if !errors.Is(err, insane.ErrNoBuffers) {
						errCh <- err
						return
					}
					runtime.Gosched()
				}
			}
		}(l)
		go func(l *lane) {
			defer wg.Done()
			for n := 0; n < perTenant; n++ {
				m, err := consumeWithin(l.sink, 10*time.Second)
				if err != nil {
					errCh <- err
					return
				}
				l.sink.Release(m)
			}
		}(l)
	}
	go func() {
		wg.Wait()
		close(errCh)
	}()
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stopSnaps)
	<-snapsDone

	m := node.Metrics()
	if len(m.Tenants) != 2 {
		t.Fatalf("Metrics().Tenants = %d entries, want 2", len(m.Tenants))
	}
	byID := map[insane.TenantID]insane.TenantMetrics{}
	for _, tm := range m.Tenants {
		byID[tm.Tenant] = tm
	}
	for _, want := range []struct {
		id     insane.TenantID
		weight int
	}{{"gold", 3}, {"bronze", 1}} {
		tm, ok := byID[want.id]
		if !ok {
			t.Fatalf("tenant %q missing from metrics", want.id)
		}
		if tm.Weight != want.weight {
			t.Errorf("%s weight = %d, want %d", want.id, tm.Weight, want.weight)
		}
		if tm.Emits != perTenant {
			t.Errorf("%s Emits = %d, want %d", want.id, tm.Emits, perTenant)
		}
		if tm.Consumes != perTenant {
			t.Errorf("%s Consumes = %d, want %d", want.id, tm.Consumes, perTenant)
		}
		if tm.EmitBytes != perTenant*64 {
			t.Errorf("%s EmitBytes = %d, want %d", want.id, tm.EmitBytes, perTenant*64)
		}
		// 400 messages into a 1024-deep lane: no Emit is refused.
		if tm.ConsumeLatency.Count != samplesOf(perTenant) {
			t.Errorf("%s ConsumeLatency.Count = %d, want %d", want.id, tm.ConsumeLatency.Count, samplesOf(perTenant))
		}
		if tm.TxInflight != 0 {
			t.Errorf("%s TxInflight = %d after drain, want 0", want.id, tm.TxInflight)
		}
	}
}

// TestTenantPromFamilies scrapes /metrics of a tenant-enabled cluster and
// checks the per-tenant families render with tenant labels.
func TestTenantPromFamilies(t *testing.T) {
	c, err := insane.NewCluster(insane.ClusterOptions{
		Nodes:       []insane.NodeSpec{{Name: "edge"}},
		Tenants:     []insane.TenantSpec{{ID: "video", Weight: 2, MemSlots: 128}},
		MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	node := c.Node("edge")

	sess, err := node.InitSession(insane.WithTenant("video"))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.CreateStreamOpts()
	if err != nil {
		t.Fatal(err)
	}
	sink, err := st.CreateSink(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := st.CreateSource(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		send(t, src, []byte("tenant traffic"))
		m, err := consumeWithin(sink, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		sink.Release(m)
	}

	resp, err := http.Get("http://" + c.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`insane_tenant_emits_total{node="edge",tenant="video"}`,
		`insane_tenant_consumes_total{node="edge",tenant="video"}`,
		`insane_tenant_weight{node="edge",tenant="video"} 2`,
		`insane_tenant_mem_slots_limit{node="edge",tenant="video"} 128`,
		`insane_tenant_consume_latency_seconds_bucket`,
		`insane_tenant_tx_inflight{node="edge",tenant="video"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestTenantQuotaBalanceAfterChurn is the leak soak for the §12/§13
// charge/refund pairs: sessions churn through an error-injecting
// workload — borrows tripping the slot budget, emits tripping the TX
// token cap and backpressure, aborted buffers, sessions closed with
// unconsumed deliveries still queued — and after every session is gone
// the tenant's gauges must read exactly zero: any residue is a lost
// Uncharge/unchargeTX/Release pair.
func TestTenantQuotaBalanceAfterChurn(t *testing.T) {
	c := tenantCluster(t, []insane.TenantSpec{
		{ID: "churn", MemSlots: 6, TxTokens: 2},
	}, insane.NodeSpec{})
	node := c.Node("edge")

	const rounds = 12
	for round := 0; round < rounds; round++ {
		sess, err := node.InitSession(insane.WithTenant("churn"))
		if err != nil {
			t.Fatal(err)
		}
		st, err := sess.CreateStreamOpts()
		if err != nil {
			t.Fatal(err)
		}
		ch := 40 + round
		sink, err := st.CreateSink(ch, nil)
		if err != nil {
			t.Fatal(err)
		}
		src, err := st.CreateSource(ch)
		if err != nil {
			t.Fatal(err)
		}

		// Error injection 1: exhaust the slot budget and keep borrowing.
		var held []*insane.Buffer
		for {
			b, err := src.GetBuffer(64)
			if err != nil {
				if !errors.Is(err, insane.ErrTenantQuota) {
					t.Fatalf("round %d: GetBuffer = %v", round, err)
				}
				break
			}
			held = append(held, b)
		}
		if len(held) != 6 {
			t.Fatalf("round %d: borrowed %d slots before quota, want 6", round, len(held))
		}
		// Abort half; the rest goes through Emit's error paths.
		for _, b := range held[:3] {
			src.Abort(b)
		}
		// Error injection 2: emit into the 2-token in-flight cap; retry
		// quota/backpressure rejections, aborting only on real errors.
		var tokens []uint32
		for _, b := range held[3:] {
			for {
				tok, err := src.Emit(b, 64)
				if err == nil {
					tokens = append(tokens, tok)
					break
				}
				if !errors.Is(err, insane.ErrTenantQuota) && !errors.Is(err, insane.ErrBackpressure) {
					src.Abort(b)
					t.Fatalf("round %d: Emit = %v", round, err)
				}
				runtime.Gosched()
			}
		}
		// Consume some deliveries; on odd rounds leave the rest queued in
		// the sink ring so Close has to settle them.
		toConsume := 3
		if round%2 == 1 {
			toConsume = 1
		}
		for i := 0; i < toConsume; i++ {
			m, err := consumeWithin(sink, 5*time.Second)
			if err != nil {
				t.Fatalf("round %d: consume %d: %v", round, i, err)
			}
			sink.Release(m)
		}
		// An emitted message holds its slot until it is delivered: wait for
		// every outcome, so what Close settles is queued in the sink ring
		// and the next round finds the whole budget free.
		for _, tok := range tokens {
			deadline := time.Now().Add(5 * time.Second)
			for {
				if _, ok := src.EmitOutcome(tok); ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("round %d: no outcome for token %d", round, tok)
				}
				runtime.Gosched()
			}
		}
		if err := sess.Close(); err != nil {
			t.Fatalf("round %d: Close = %v", round, err)
		}
	}

	ten := node.Metrics().Tenants[0]
	if ten.MemUsed != 0 {
		t.Errorf("MemUsed after churn = %d, want 0 (slot charges leaked)", ten.MemUsed)
	}
	if ten.TxInflight != 0 {
		t.Errorf("TxInflight after churn = %d, want 0 (TX charges leaked)", ten.TxInflight)
	}
	if ten.QuotaRejects == 0 {
		t.Error("QuotaRejects = 0: the workload never tripped a quota, soak proves nothing")
	}
}
