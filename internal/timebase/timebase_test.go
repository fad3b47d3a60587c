package timebase

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVTimeArithmetic(t *testing.T) {
	base := VTime(1000)
	if got := base.Add(500 * time.Nanosecond); got != VTime(1500) {
		t.Errorf("Add = %v", got)
	}
	if got := VTime(1500).Sub(base); got != 500*time.Nanosecond {
		t.Errorf("Sub = %v", got)
	}
	if !base.Before(VTime(1001)) || base.Before(base) {
		t.Error("Before wrong")
	}
	if base.Duration() != time.Microsecond {
		t.Errorf("Duration = %v", base.Duration())
	}
	if base.String() != "1µs" {
		t.Errorf("String = %q", base.String())
	}
	if Max(base, VTime(2000)) != VTime(2000) || Max(base, VTime(500)) != base {
		t.Error("Max wrong")
	}
}

func TestQuickVTimeAddSubInverse(t *testing.T) {
	prop := func(start int64, delta int32) bool {
		v := VTime(start)
		d := time.Duration(delta)
		return v.Add(d).Sub(v) == d
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRealClockMonotonic(t *testing.T) {
	c := NewRealClock()
	a := c.Now()
	time.Sleep(time.Millisecond)
	b := c.Now()
	if !a.Before(b) {
		t.Errorf("real clock not advancing: %v then %v", a, b)
	}
	if a < 0 {
		t.Error("clock started negative")
	}
}

func TestSimClock(t *testing.T) {
	var c SimClock
	if c.Now() != 0 {
		t.Error("zero SimClock not at 0")
	}
	c.Set(VTime(100))
	if c.Now() != 100 {
		t.Error("Set failed")
	}
	if got := c.Advance(50 * time.Nanosecond); got != 150 || c.Now() != 150 {
		t.Errorf("Advance = %v, now = %v", got, c.Now())
	}
}

func TestSimClockConcurrent(t *testing.T) {
	var c SimClock
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(1)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 8000 {
		t.Errorf("concurrent advance = %v, want 8000", c.Now())
	}
}

func TestRateTransmission(t *testing.T) {
	cases := []struct {
		rate Rate
		n    int
		want time.Duration
	}{
		{100 * Gbps, 1250, 100 * time.Nanosecond}, // 10k bits at 100G
		{Gbps, 125, time.Microsecond},
		{0, 1000, 0}, // infinite rate
		{Gbps, 0, 0}, // nothing to send
		{-5, 100, 0}, // invalid rate treated as infinite
		{Mbps, 125, time.Millisecond},
	}
	for _, c := range cases {
		if got := c.rate.Transmission(c.n); got != c.want {
			t.Errorf("(%v).Transmission(%d) = %v, want %v", c.rate, c.n, got, c.want)
		}
	}
}

func TestRateTransmissionJumboNoOverflow(t *testing.T) {
	// A 1 GB burst at 1 Kbps must not overflow int64 ns math badly: the
	// formula guards up to ~1.1 GB frames.
	d := Kbps.Transmission(1 << 20)
	if d <= 0 {
		t.Errorf("large transmission = %v", d)
	}
}

func TestGoodput(t *testing.T) {
	// 1250 bytes in 100ns = 100 Gbps.
	if got := Goodput(1250, 100*time.Nanosecond); got != 100*Gbps {
		t.Errorf("Goodput = %v", got)
	}
	if Goodput(0, time.Second) != 0 || Goodput(100, 0) != 0 || Goodput(100, -1) != 0 {
		t.Error("degenerate goodput not zero")
	}
}

func TestQuickRateRoundTrip(t *testing.T) {
	// Goodput(n, Transmission(n)) ≈ rate for well-conditioned inputs.
	prop := func(k uint16) bool {
		n := int(k) + 1000
		r := 10 * Gbps
		d := r.Transmission(n)
		got := Goodput(n, d)
		diff := int64(got) - int64(r)
		if diff < 0 {
			diff = -diff
		}
		return float64(diff) < 0.01*float64(r)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRateString(t *testing.T) {
	cases := []struct {
		r    Rate
		want string
	}{
		{86_900_000_000, "86.90 Gbps"},
		{250 * Mbps, "250.00 Mbps"},
		{9 * Kbps, "9.00 Kbps"},
		{42, "42 bps"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", c.r, got, c.want)
		}
	}
}
