//go:build perfbench

package main

import "testing"

// message builds payload seq of a 64-byte stream.
func message(seed, seq uint64) []byte {
	p := make([]byte, 64)
	fill(p, seed, seq)
	return p
}

func TestOracleAcceptsAnIntactStream(t *testing.T) {
	o := newOracle("t", 9, 64)
	for seq := uint64(0); seq < 200; seq++ {
		o.check(message(9, seq))
	}
	if n := o.finish(200); n != 0 {
		t.Errorf("intact stream: %d failures: %v", n, o.notes)
	}
}

func TestOracleCountsDroppedReorderedAndCorrupted(t *testing.T) {
	t.Run("dropped", func(t *testing.T) {
		o := newOracle("t", 9, 64)
		for _, seq := range []uint64{0, 1, 3, 4} { // 2 never arrives
			o.check(message(9, seq))
		}
		if o.finish(5); o.lost != 1 || o.failures() != 1 {
			t.Errorf("lost = %d, failures = %d, want 1 and 1: %v", o.lost, o.failures(), o.notes)
		}
	})
	t.Run("dropped at the end", func(t *testing.T) {
		o := newOracle("t", 9, 64)
		o.check(message(9, 0))
		if n := o.finish(3); n != 2 || o.lost != 2 {
			t.Errorf("failures = %d, lost = %d, want 2 and 2", n, o.lost)
		}
	})
	t.Run("reordered", func(t *testing.T) {
		o := newOracle("t", 9, 64)
		for _, seq := range []uint64{0, 2, 1, 3} {
			o.check(message(9, seq))
		}
		if o.finish(4); o.reordered != 1 {
			t.Errorf("reordered = %d, want 1: %v", o.reordered, o.notes)
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		o := newOracle("t", 9, 64)
		p := message(9, 0) // sequence 0 carries the full pattern
		p[40] ^= 0x01
		o.check(p)
		if o.finish(1); o.corrupt != 1 || o.failures() != 1 {
			t.Errorf("corrupt = %d, failures = %d, want 1 and 1: %v", o.corrupt, o.failures(), o.notes)
		}
	})
	t.Run("wrong length", func(t *testing.T) {
		o := newOracle("t", 9, 64)
		o.check(message(9, 0)[:32])
		if o.short != 1 {
			t.Errorf("short = %d, want 1", o.short)
		}
	})
	t.Run("wrong seed", func(t *testing.T) {
		o := newOracle("t", 9, 64)
		o.check(message(8, 0))
		if o.corrupt != 1 {
			t.Errorf("pattern of another seed accepted")
		}
	})
}

func TestPatternCoversOddLengths(t *testing.T) {
	for _, size := range []int{16, 17, 23, 64, 128, 1021} {
		p := make([]byte, size)
		fill(p, 3, 0)
		if !patternOK(p, 3, 0) {
			t.Errorf("size %d: pattern does not verify", size)
		}
		if size > headerLen {
			p[size-1] ^= 0x80
			if patternOK(p, 3, 0) {
				t.Errorf("size %d: flipped last byte not detected", size)
			}
		}
	}
}
