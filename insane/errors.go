package insane

import (
	"errors"

	"github.com/insane-mw/insane/internal/core"
	"github.com/insane-mw/insane/internal/mempool"
)

// Errors surfaced by the client library. They are the package's own
// sentinels — internal error values never cross the public surface — and
// are returned by value, so both errors.Is and direct comparison work.
var (
	// ErrClosed is returned by operations on closed sessions, streams,
	// sources or sinks.
	ErrClosed = errors.New("insane: closed")
	// ErrBackpressure is returned by Emit when the runtime is busy; the
	// caller keeps the buffer and should retry.
	ErrBackpressure = errors.New("insane: runtime busy, retry")
	// ErrNoBuffers is returned by GetBuffer when the memory pools are
	// momentarily exhausted; slot recycling is the natural flow control
	// of the zero-copy design, so callers back off and retry.
	ErrNoBuffers = errors.New("insane: no free buffers")
	// ErrNoDatapath is returned by CreateStreamOpts when the QoS mapping
	// picked a technology this node has no endpoint for.
	ErrNoDatapath = errors.New("insane: no datapath for mapped technology")
	// ErrBufferConsumed is returned by Emit when the buffer is nil or its
	// ownership already moved to the runtime (a previous successful Emit).
	// A static sentinel: Emit sits on the zero-allocation hot path.
	ErrBufferConsumed = errors.New("insane: emit of nil or already-emitted buffer")
	// ErrTenantQuota is returned by GetBuffer (slot budget) and Emit (TX
	// token cap) when the session's tenant is at one of its declared
	// limits; the pressure is the tenant's own, so back off and retry —
	// or release held buffers — rather than treating it as node
	// exhaustion.
	ErrTenantQuota = errors.New("insane: tenant quota exhausted")
	// ErrUnknownTenant is returned by InitSession(WithTenant(...)) when
	// the tenant was not declared in ClusterOptions.Tenants.
	ErrUnknownTenant = errors.New("insane: unknown tenant")
)

// publicErr translates an internal error to the package's sentinels.
// Known sentinels are returned by value (no wrapping) so the translation
// allocates nothing on the hot path; anything unrecognized passes through
// unchanged.
func publicErr(err error) error {
	switch {
	case err == nil:
		return nil
	case err == core.ErrClosed:
		return ErrClosed
	case err == core.ErrBackpressure:
		return ErrBackpressure
	case err == mempool.ErrExhausted:
		return ErrNoBuffers
	case err == core.ErrTenantQuota, err == mempool.ErrQuota:
		return ErrTenantQuota
	}
	// Wrapped variants (e.g. "no endpoint for <tech>") only occur on
	// control paths, where errors.Is unwrapping is affordable.
	switch {
	case errors.Is(err, core.ErrNoDatapath):
		return ErrNoDatapath
	case errors.Is(err, core.ErrClosed):
		return ErrClosed
	case errors.Is(err, mempool.ErrExhausted):
		return ErrNoBuffers
	case errors.Is(err, core.ErrUnknownTenant):
		return ErrUnknownTenant
	}
	return err
}
