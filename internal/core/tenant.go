// Tenant registry: the runtime half of multi-tenant QoS isolation
// (DESIGN.md §12). A tenant is a principal with its own WDRR weight,
// mempool slot budget, in-flight TX token cap, QoS class ceiling, and its
// slice of the node's telemetry shards. Sessions bind to a tenant at
// ConnectTenant; every quota decision afterwards is a couple of atomic
// operations against the session's cached *tenant — the registry itself
// is immutable after NewRuntime.
//
// The default tenant (empty name) is a tenant like any other, at index 0 of
// every registry: no budget, no caps, weight 1. Its quota calls return on
// their first compare, so a runtime that declares no tenant pays a
// predictable branch per call and nothing else.

package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/insane-mw/insane/internal/mempool"
	"github.com/insane-mw/insane/internal/telemetry"
)

// Tenant admission errors.
var (
	// ErrTenantQuota is returned by Emit (TX token cap) and GetBuffer
	// (slot budget, via mempool.ErrQuota) when the session's tenant is at
	// its limit. A static sentinel: quota rejection is a hot-path event.
	ErrTenantQuota = errors.New("core: tenant quota exhausted")
	// ErrUnknownTenant is returned by ConnectTenant for a name that was
	// not declared in Config.Tenants.
	ErrUnknownTenant = errors.New("core: unknown tenant")
)

// TenantSpec declares one tenant in Config.Tenants.
type TenantSpec struct {
	// Name identifies the tenant; sessions bind to it by name. Must be
	// non-empty and unique ("" is the implicit default tenant).
	Name string
	// Weight is the tenant's WDRR share of best-effort egress
	// (default 1).
	Weight int
	// MemSlots caps how many mempool slots the tenant's sessions may
	// hold at once (0 = unlimited).
	MemSlots int
	// TxTokens caps the tenant's in-flight TX tokens — emitted but not
	// yet dispatched messages (0 = unlimited).
	TxTokens int
	// MaxClass ceilings the 802.1Qbv traffic class the tenant's streams
	// may request (0 = unrestricted; classes above it are clamped with a
	// warning, mirroring the QoS mapper's fallback idiom).
	MaxClass uint8
}

// tenant is the runtime-internal record of one tenant. All fields except
// inflight and nextShard are immutable after construction.
//
//insane:shared
type tenant struct {
	name  string //insane:guardedby immutable after=buildTenants
	index int    //insane:guardedby immutable after=buildTenants
	// spec is the declared tenant configuration.
	spec TenantSpec //insane:guardedby immutable after=buildTenants

	// budget partitions the mempool (nil only for the default tenant, which
	// mempool reads as "uncapped"; declared tenants always carry one so
	// occupancy gauges work).
	budget *mempool.Budget //insane:guardedby immutable after=buildTenants
	// inflight counts emitted-but-not-dispatched TX tokens against
	// spec.TxTokens.
	inflight atomic.Int64 //insane:guardedby atomic
	// shards are the tenant's slice of the node's telemetry domain: every
	// source and sink of its sessions records into one of them and nothing
	// else does, so merging them is the tenant's view (TenantSnapshots). The
	// default tenant stripes its handles over clientTelemetryShards, a
	// declared tenant has one.
	shards    []*telemetry.Shard //insane:guardedby immutable after=newRuntime
	nextShard atomic.Uint32      //insane:guardedby atomic
}

// clientTelemetryShards is how many telemetry shards back the default
// tenant's handles (sources and sinks, striped round-robin).
const clientTelemetryShards = 4

// assignShard hands out the tenant's shards round-robin; a source or sink
// calls it once at creation, so concurrent client goroutines spread over
// the tenant's shards instead of hammering one line.
func (t *tenant) assignShard() *telemetry.Shard {
	return t.shards[int(t.nextShard.Add(1))%len(t.shards)]
}

// chargeTX reserves one in-flight TX token, reporting false at the cap.
// Same optimistic add-then-undo as mempool.Budget.TryCharge.
//
//insane:hotpath
//insane:acquire resource=tenant-tx on=true
func (t *tenant) chargeTX() bool {
	if t.spec.TxTokens <= 0 {
		return true
	}
	if t.inflight.Add(1) > int64(t.spec.TxTokens) {
		t.inflight.Add(-1)
		return false
	}
	return true
}

// unchargeTX returns one in-flight token (dispatch or failed push).
//
//insane:hotpath
//insane:release resource=tenant-tx
func (t *tenant) unchargeTX() {
	if t.spec.TxTokens > 0 {
		t.inflight.Add(-1)
	}
}

// buildTenants validates the declared specs and constructs the registry:
// the default tenant at index 0 (and under the empty name), then the
// declared ones in order. NewRuntime binds the telemetry shards.
func buildTenants(specs []TenantSpec) ([]*tenant, map[string]*tenant, error) {
	def := &tenant{spec: TenantSpec{Weight: 1}, shards: make([]*telemetry.Shard, clientTelemetryShards)}
	tenants := append(make([]*tenant, 0, len(specs)+1), def)
	byName := map[string]*tenant{"": def}
	for _, sp := range specs {
		if sp.Name == "" {
			return nil, nil, errors.New("core: tenant name must be non-empty")
		}
		if _, dup := byName[sp.Name]; dup {
			return nil, nil, fmt.Errorf("core: duplicate tenant %q", sp.Name)
		}
		if sp.Weight < 1 {
			sp.Weight = 1
		}
		t := &tenant{
			name:   sp.Name,
			index:  len(tenants),
			spec:   sp,
			budget: mempool.NewBudget(sp.MemSlots),
			shards: make([]*telemetry.Shard, 1),
		}
		byName[sp.Name] = t
		tenants = append(tenants, t)
	}
	return tenants, byName, nil
}

// tenantWeights returns the WDRR weight vector, index-aligned with the
// registry.
func tenantWeights(tenants []*tenant) []int {
	w := make([]int, len(tenants))
	for i, t := range tenants {
		w[i] = t.spec.Weight
	}
	return w
}

// TenantSnapshots samples every declared tenant's view of the node's
// telemetry and its quota gauges (control path; empty when none is
// declared: the default tenant has no exported view of its own).
func (r *Runtime) TenantSnapshots() []telemetry.TenantSnapshot {
	var out []telemetry.TenantSnapshot
	for _, t := range r.tenants[1:] {
		out = append(out, telemetry.TenantSnapshot{
			Tenant:        t.name,
			Weight:        t.spec.Weight,
			Snap:          r.tel.SnapshotOf(t.shards...),
			MemUsed:       t.budget.Used(),
			MemLimit:      t.budget.Limit(),
			Inflight:      t.inflight.Load(),
			InflightLimit: int64(t.spec.TxTokens),
		})
	}
	return out
}
