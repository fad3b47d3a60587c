package netstack

import (
	"bytes"
	"testing"
)

// FuzzDecodeUDP feeds DecodeUDP what a peer controls: the raw bytes of a
// frame, parsed in place in registered receive memory. Whatever they are,
// the decoder must not panic, must not allocate, must hand back a payload
// that lies inside the frame — and a frame it accepts must survive
// re-encoding: the engine's encoder is the decoder's inverse.
func FuzzDecodeUDP(f *testing.F) {
	meta := FrameMeta{
		SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2},
		Src: Endpoint{IP: IPv4{10, 0, 2, 1}, Port: 46002},
		Dst: Endpoint{IP: IPv4{10, 0, 2, 2}, Port: 46002},
	}
	for _, n := range []int{0, 1, 64, 1458} {
		buf := make([]byte, FrameLen(n))
		for i := HeadersLen; i < len(buf); i++ {
			buf[i] = byte(i)
		}
		meta.TrafficClass = uint8(n) & 0x3f
		if _, err := EncodeUDP(buf, meta, n, JumboMTU); err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)/2])
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		meta, payload, err := DecodeUDP(frame)
		if !raceEnabled {
			if allocs := testing.AllocsPerRun(1, func() { _, _, _ = DecodeUDP(frame) }); allocs != 0 {
				t.Fatalf("DecodeUDP allocates %.0f times on a %d-byte frame", allocs, len(frame))
			}
		}
		if err != nil {
			if payload != nil {
				t.Fatalf("rejected frame (%v) still yields a %d-byte payload", err, len(payload))
			}
			return
		}
		if len(payload) > len(frame)-HeadersLen || (len(payload) > 0 && &payload[0] != &frame[HeadersLen]) {
			t.Fatalf("payload of %d bytes is not a view of the %d-byte frame at the header boundary", len(payload), len(frame))
		}
		again := make([]byte, FrameLen(len(payload)))
		copy(again[HeadersLen:], payload)
		n, err := EncodeUDP(again, meta, len(payload), IPv4HeaderLen+UDPHeaderLen+len(payload))
		if err != nil {
			t.Fatalf("re-encoding an accepted frame: %v", err)
		}
		meta2, payload2, err := DecodeUDP(again[:n])
		if err != nil || meta2 != meta || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip: %+v, %d bytes, %v; want %+v, %d bytes", meta2, len(payload2), err, meta, len(payload))
		}
	})
}
