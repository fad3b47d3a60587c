// Tenant registry: the runtime half of multi-tenant QoS isolation
// (DESIGN.md §12). A tenant is a declared principal with its own WDRR
// weight, mempool slot budget, in-flight TX token cap, QoS class
// ceiling, and telemetry domain. Sessions bind to a tenant at
// ConnectTenant; every quota decision afterwards is a couple of atomic
// operations against the session's cached *tenant — the registry itself
// is immutable after NewRuntime.
//
// The default tenant (empty name) is deliberately nil everywhere: a
// single-tenant runtime carries zero per-packet tenant overhead, which
// is what keeps the steady-state allocation and latency gates unchanged.

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

// tenant is the runtime-internal record of one declared tenant. All
// fields except inflight are immutable after construction.
//
//insane:shared
type tenant struct {
	name  string //insane:guardedby immutable after=buildTenants
	index int    //insane:guardedby immutable after=buildTenants
	// spec is the declared tenant configuration.
	spec TenantSpec //insane:guardedby immutable after=buildTenants

	// budget partitions the mempool (nil only for the default tenant;
	// declared tenants always carry one so occupancy gauges work).
	budget *mempool.Budget //insane:guardedby immutable after=buildTenants
	// inflight counts emitted-but-not-dispatched TX tokens against
	// spec.TxTokens.
	inflight atomic.Int64 //insane:guardedby atomic
	// tel/shard are the tenant's private telemetry domain: one shard is
	// enough because only client goroutines of this tenant write to it.
	tel   *telemetry.Telemetry //insane:guardedby immutable after=buildTenants
	shard *telemetry.Shard     //insane:guardedby immutable after=buildTenants
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

// buildTenants validates the declared specs and constructs the registry.
func buildTenants(specs []TenantSpec) ([]*tenant, map[string]*tenant, error) {
	if len(specs) == 0 {
		return nil, nil, nil
	}
	// Index 0 is reserved for the default tenant: a token with no tenant
	// is filed under the default WDRR queue.
	tenants := make([]*tenant, 0, len(specs)+1)
	def := &tenant{name: "", index: 0, spec: TenantSpec{Weight: 1}}
	tenants = append(tenants, def)
	byName := make(map[string]*tenant, len(specs))
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
			tel:    telemetry.New(1),
		}
		t.shard = t.tel.Shard(0)
		byName[sp.Name] = t
		tenants = append(tenants, t)
	}
	return tenants, byName, nil
}

// tenantWeights returns the WDRR weight vector, index-aligned with the
// registry (nil when no tenants are declared → single-queue WDRR).
func tenantWeights(tenants []*tenant) []int {
	if len(tenants) == 0 {
		return nil
	}
	w := make([]int, len(tenants))
	for i, t := range tenants {
		w[i] = t.spec.Weight
	}
	return w
}

// TenantSnapshots samples every declared tenant's telemetry and quota
// gauges (control path; empty in single-tenant mode).
func (r *Runtime) TenantSnapshots() []telemetry.TenantSnapshot {
	if len(r.tenants) <= 1 {
		return nil
	}
	out := make([]telemetry.TenantSnapshot, 0, len(r.tenants)-1)
	for _, t := range r.tenants[1:] { // skip the default tenant
		out = append(out, telemetry.TenantSnapshot{
			Tenant:        t.name,
			Weight:        t.spec.Weight,
			Snap:          t.tel.Snapshot(),
			MemUsed:       t.budget.Used(),
			MemLimit:      t.budget.Limit(),
			Inflight:      t.inflight.Load(),
			InflightLimit: int64(t.spec.TxTokens),
		})
	}
	return out
}

// TenantNames lists the declared tenant names (Inspect, tests).
func (r *Runtime) TenantNames() []string {
	if len(r.tenants) <= 1 {
		return nil
	}
	out := make([]string, 0, len(r.tenants)-1)
	for _, t := range r.tenants[1:] {
		out = append(out, t.name)
	}
	return out
}
