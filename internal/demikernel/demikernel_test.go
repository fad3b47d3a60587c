package demikernel

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/fabric"
	"github.com/insane-mw/insane/internal/model"
	"github.com/insane-mw/insane/internal/netstack"
)

// pair builds two connected LibOS instances of the same variant.
func pair(t *testing.T, v Variant, blocking bool) (*LibOS, *LibOS, QD, QD) {
	t.Helper()
	net := fabric.New(3)
	ipA, ipB := netstack.IPv4{10, 9, 0, 1}, netstack.IPv4{10, 9, 0, 2}
	pa, err := net.AddHost("a", ipA)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := net.AddHost("b", ipB)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectDirect(pa, pb, fabric.DefaultLink); err != nil {
		t.Fatal(err)
	}
	mk := func(port *fabric.Port, ip netstack.IPv4) (*LibOS, QD) {
		l, err := New(v, Config{Port: port, Resolver: net.Resolver(), Testbed: model.Local, Blocking: blocking})
		if err != nil {
			t.Fatal(err)
		}
		qd, err := l.Socket()
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Bind(qd, netstack.Endpoint{IP: ip, Port: 9000}); err != nil {
			t.Fatal(err)
		}
		return l, qd
	}
	la, qa := mk(pa, ipA)
	lb, qb := mk(pb, ipB)
	if err := la.Connect(qa, netstack.Endpoint{IP: ipB, Port: 9000}); err != nil {
		t.Fatal(err)
	}
	if err := lb.Connect(qb, netstack.Endpoint{IP: ipA, Port: 9000}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { la.Close(); lb.Close() })
	return la, lb, qa, qb
}

func TestCatnapRoundTrip(t *testing.T) {
	la, lb, qa, qb := pair(t, Catnap, false)
	msg := []byte("catnap datagram")
	if err := la.Push(qa, msg); err != nil {
		t.Fatal(err)
	}
	res, err := lb.Pop(qb, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, msg) {
		t.Errorf("payload = %q, want %q", res.Payload, msg)
	}
	// Catnap one-way ≈ kernel one-way + 540 ns lib ≈ 6.83 µs.
	if res.Breakdown.Total() < 6*time.Microsecond || res.Breakdown.Total() > 8*time.Microsecond {
		t.Errorf("catnap one-way = %v, want ≈6.8µs", res.Breakdown.Total())
	}
}

func TestCatnipRoundTrip(t *testing.T) {
	la, lb, qa, qb := pair(t, Catnip, false)
	msg := make([]byte, 64)
	for i := range msg {
		msg[i] = byte(i)
	}
	if err := la.Push(qa, msg); err != nil {
		t.Fatal(err)
	}
	res, err := lb.Pop(qb, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, msg) {
		t.Error("payload mismatch")
	}
	// Catnip one-way ≈ raw DPDK 1.72 µs + 410 ns lib = 2.13 µs.
	if res.Breakdown.Total() < 1900*time.Nanosecond || res.Breakdown.Total() > 2400*time.Nanosecond {
		t.Errorf("catnip one-way = %v, want ≈2.13µs", res.Breakdown.Total())
	}
}

// TestPingPongRTTMatchesFig7 runs a full echo and compares the accumulated
// virtual RTT with the paper's Fig. 7a values.
func TestPingPongRTTMatchesFig7(t *testing.T) {
	cases := []struct {
		variant  Variant
		blocking bool
		want     time.Duration
	}{
		{Catnap, false, 13660 * time.Nanosecond},
		{Catnip, false, 4260 * time.Nanosecond},
	}
	for _, c := range cases {
		t.Run(c.variant.String(), func(t *testing.T) {
			la, lb, qa, qb := pair(t, c.variant, c.blocking)
			msg := make([]byte, 64)
			if err := la.Push(qa, msg); err != nil {
				t.Fatal(err)
			}
			req, err := lb.Pop(qb, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if err := lb.PushAt(qb, req.Payload, req.Breakdown); err != nil {
				t.Fatal(err)
			}
			pong, err := la.Pop(qa, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			rtt := pong.Breakdown.Total()
			lo := time.Duration(float64(c.want) * 0.95)
			hi := time.Duration(float64(c.want) * 1.05)
			if rtt < lo || rtt > hi {
				t.Errorf("%s RTT = %v, want ≈%v", c.variant, rtt, c.want)
			}
		})
	}
}

func TestBlockingCatnap(t *testing.T) {
	la, lb, qa, qb := pair(t, Catnap, true)
	if err := la.Push(qa, []byte("wake up")); err != nil {
		t.Fatal(err)
	}
	res, err := lb.Pop(qb, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Payload) != "wake up" {
		t.Errorf("payload = %q", res.Payload)
	}
}

func TestPopTimeout(t *testing.T) {
	_, lb, _, qb := pair(t, Catnap, false)
	start := time.Now()
	if _, err := lb.Pop(qb, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Error("pop returned before deadline")
	}
}

func TestAPIValidation(t *testing.T) {
	if _, err := New(Variant(9), Config{}); err == nil {
		t.Error("bad variant accepted")
	}
	net := fabric.New(1)
	p, _ := net.AddHost("x", netstack.IPv4{10, 9, 1, 1})
	l, err := New(Catnap, Config{Port: p, Resolver: net.Resolver(), Testbed: model.Local})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Bind(QD(99), netstack.Endpoint{}); !errors.Is(err, ErrBadQD) {
		t.Errorf("bad qd bind = %v", err)
	}
	if err := l.Connect(QD(99), netstack.Endpoint{}); !errors.Is(err, ErrBadQD) {
		t.Errorf("bad qd connect = %v", err)
	}
	if err := l.Push(QD(99), nil); !errors.Is(err, ErrBadQD) {
		t.Errorf("bad qd push = %v", err)
	}
	qd, _ := l.Socket()
	if err := l.Push(qd, []byte("x")); !errors.Is(err, ErrNotBound) {
		t.Errorf("unbound push = %v", err)
	}
	if _, err := l.Pop(qd, time.Millisecond); !errors.Is(err, ErrNotBound) {
		t.Errorf("unbound pop = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestVariantString(t *testing.T) {
	if Catnap.String() != "catnap" || Catnip.String() != "catnip" || Variant(9).String() != "unknown" {
		t.Error("Variant.String wrong")
	}
}
