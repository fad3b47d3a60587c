package core

import (
	"bytes"
	"testing"
)

// FuzzDecodeHeader feeds decodeHeader the bytes that follow the network
// headers of a received frame — a peer's to choose, parsed in place in
// registered receive memory. The decoder must not panic and must not
// allocate, and a header it accepts must survive re-encoding byte for
// byte — the sampled flag included; the other flag bits and the reserved
// byte are a peer's to set and ours to ignore, and the encoder zeroes them.
func FuzzDecodeHeader(f *testing.F) {
	for _, h := range []header{
		{kind: kindData, channel: 1, class: 7, seq: 42},
		{kind: kindData, channel: 1, seq: 65, sampled: true},
		{kind: kindSub, channel: 0xDEADBEEF, aux: 2},
		{kind: kindUnsub, channel: 9, aux: 0},
	} {
		buf := make([]byte, HeaderLen+8)
		encodeHeader(buf, h)
		f.Add(buf)
		f.Add(buf[:HeaderLen-1])
	}
	f.Fuzz(func(t *testing.T, msg []byte) {
		h, err := decodeHeader(msg)
		if !raceEnabled {
			if allocs := testing.AllocsPerRun(1, func() { _, _ = decodeHeader(msg) }); allocs != 0 {
				t.Fatalf("decodeHeader allocates %.0f times on a %d-byte message", allocs, len(msg))
			}
		}
		if err != nil {
			if h != (header{}) {
				t.Fatalf("rejected header (%v) still yields %+v", err, h)
			}
			return
		}
		var again [HeaderLen]byte
		encodeHeader(again[:], h)
		if !bytes.Equal(again[:14], msg[:14]) || again[14] != msg[14]&flagSampled || again[15] != 0 {
			t.Fatalf("re-encoded header % x differs from the accepted % x", again, msg[:HeaderLen])
		}
		if h2, err := decodeHeader(again[:]); err != nil || h2 != h {
			t.Fatalf("round trip: %+v, %v; want %+v", h2, err, h)
		}
	})
}
