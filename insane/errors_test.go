package insane

import (
	"errors"
	"fmt"
	"testing"

	"github.com/insane-mw/insane/internal/core"
	"github.com/insane-mw/insane/internal/mempool"
)

// TestPublicErrTranslation pins the boundary translation: every internal
// sentinel maps to the package's own value (by identity, so both direct
// comparison and errors.Is hold), wrapped internals unwrap, and unknown
// errors pass through untouched.
func TestPublicErrTranslation(t *testing.T) {
	cases := []struct {
		in   error
		want error
	}{
		{nil, nil},
		{core.ErrClosed, ErrClosed},
		{core.ErrBackpressure, ErrBackpressure},
		{mempool.ErrExhausted, ErrNoBuffers},
		{core.ErrTenantQuota, ErrTenantQuota},
		{mempool.ErrQuota, ErrTenantQuota},
		{fmt.Errorf("%w: dpdk", core.ErrNoDatapath), ErrNoDatapath},
		{fmt.Errorf("%w: 9999 bytes", mempool.ErrExhausted), ErrNoBuffers},
		{fmt.Errorf("%w: %q", core.ErrUnknownTenant, "ghost"), ErrUnknownTenant},
	}
	for _, c := range cases {
		if got := publicErr(c.in); got != c.want {
			t.Errorf("publicErr(%v) = %v, want %v", c.in, got, c.want)
		}
	}

	other := errors.New("application error")
	if got := publicErr(other); got != other {
		t.Errorf("unknown error rewritten to %v", got)
	}

	// The public values must be this package's own, not aliases of the
	// internal ones — the redesign stops the leak.
	if ErrClosed == core.ErrClosed || ErrBackpressure == core.ErrBackpressure {
		t.Error("public sentinels alias internal/core values")
	}
}
