package netstack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

var testMeta = FrameMeta{
	SrcMAC:       MAC{0x02, 0, 0, 0, 0, 1},
	DstMAC:       MAC{0x02, 0, 0, 0, 0, 2},
	Src:          Endpoint{IP: IPv4{10, 0, 0, 1}, Port: 5000},
	Dst:          Endpoint{IP: IPv4{10, 0, 0, 2}, Port: 6000},
	TrafficClass: 5,
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	payload := []byte("hello insane")
	buf := make([]byte, 2048)
	copy(buf[HeadersLen:], payload)
	n, err := EncodeUDP(buf, testMeta, len(payload), StandardMTU)
	if err != nil {
		t.Fatal(err)
	}
	if n != HeadersLen+len(payload) {
		t.Fatalf("frame len = %d, want %d", n, HeadersLen+len(payload))
	}
	meta, got, err := DecodeUDP(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if meta != testMeta {
		t.Errorf("meta = %+v, want %+v", meta, testMeta)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %q, want %q", got, payload)
	}
}

func TestDecodePayloadAliasesFrame(t *testing.T) {
	buf := make([]byte, 256)
	copy(buf[HeadersLen:], "abcd")
	n, _ := EncodeUDP(buf, testMeta, 4, StandardMTU)
	_, payload, err := DecodeUDP(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	payload[0] = 'Z'
	if buf[HeadersLen] != 'Z' {
		t.Error("decoded payload is a copy; want zero-copy alias")
	}
}

func TestEncodePayloadTooLarge(t *testing.T) {
	buf := make([]byte, 16*1024)
	if _, err := EncodeUDP(buf, testMeta, MaxPayload(StandardMTU)+1, StandardMTU); !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("err = %v, want ErrPayloadTooLarge", err)
	}
	// Jumbo MTU admits the same payload.
	if _, err := EncodeUDP(buf, testMeta, MaxPayload(StandardMTU)+1, JumboMTU); err != nil {
		t.Errorf("jumbo encode: %v", err)
	}
}

func TestEncodeBufferTooSmall(t *testing.T) {
	buf := make([]byte, HeadersLen+3)
	if _, err := EncodeUDP(buf, testMeta, 100, StandardMTU); err == nil {
		t.Error("want error for undersized buffer")
	}
}

func TestEncodeZeroPayload(t *testing.T) {
	buf := make([]byte, 64)
	n, err := EncodeUDP(buf, testMeta, 0, StandardMTU)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, err := DecodeUDP(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != 0 {
		t.Errorf("payload len = %d, want 0", len(payload))
	}
}

func TestDecodeErrors(t *testing.T) {
	good := make([]byte, 256)
	copy(good[HeadersLen:], "payload")
	n, _ := EncodeUDP(good, testMeta, 7, StandardMTU)
	good = good[:n]

	t.Run("too short", func(t *testing.T) {
		if _, _, err := DecodeUDP(good[:HeadersLen-1]); !errors.Is(err, ErrFrameTooShort) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("not ipv4 ethertype", func(t *testing.T) {
		f := append([]byte(nil), good...)
		binary.BigEndian.PutUint16(f[12:14], 0x86dd)
		if _, _, err := DecodeUDP(f); !errors.Is(err, ErrNotIPv4) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		f := append([]byte(nil), good...)
		f[EthHeaderLen] = 0x46
		if _, _, err := DecodeUDP(f); !errors.Is(err, ErrNotIPv4) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("not udp", func(t *testing.T) {
		f := append([]byte(nil), good...)
		f[EthHeaderLen+9] = 6 // TCP
		// Fix checksum so the protocol check is what fires.
		f[EthHeaderLen+10], f[EthHeaderLen+11] = 0, 0
		cks := internetChecksum(f[EthHeaderLen : EthHeaderLen+IPv4HeaderLen])
		binary.BigEndian.PutUint16(f[EthHeaderLen+10:EthHeaderLen+12], cks)
		if _, _, err := DecodeUDP(f); !errors.Is(err, ErrNotUDP) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("corrupted header checksum", func(t *testing.T) {
		f := append([]byte(nil), good...)
		f[EthHeaderLen+12] ^= 0xff // flip a source IP byte
		if _, _, err := DecodeUDP(f); !errors.Is(err, ErrBadChecksum) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, _, err := DecodeUDP(good[:len(good)-3]); !errors.Is(err, ErrLengthMismatch) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("udp/ip length disagreement", func(t *testing.T) {
		f := append([]byte(nil), good...)
		off := EthHeaderLen + IPv4HeaderLen + 4
		binary.BigEndian.PutUint16(f[off:off+2], 99)
		if _, _, err := DecodeUDP(f); !errors.Is(err, ErrLengthMismatch) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestInternetChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 0x0001f203f4f5f6f7 → checksum 0x220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := internetChecksum(b); got != 0x220d {
		t.Errorf("checksum = %#04x, want 0x220d", got)
	}
	// Odd length handling.
	odd := []byte{0xab}
	if got := internetChecksum(odd); got != ^uint16(0xab00) {
		t.Errorf("odd checksum = %#04x", got)
	}
}

func TestQuickRoundTripArbitraryPayloads(t *testing.T) {
	buf := make([]byte, 16*1024)
	prop := func(payload []byte, tc uint8) bool {
		if len(payload) > MaxPayload(JumboMTU) {
			payload = payload[:MaxPayload(JumboMTU)]
		}
		meta := testMeta
		meta.TrafficClass = tc & 0x3f
		copy(buf[HeadersLen:], payload)
		n, err := EncodeUDP(buf, meta, len(payload), JumboMTU)
		if err != nil {
			return false
		}
		m2, p2, err := DecodeUDP(buf[:n])
		if err != nil {
			return false
		}
		return m2 == meta && bytes.Equal(p2, payload)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxPayload(t *testing.T) {
	if got := MaxPayload(StandardMTU); got != 1472 {
		t.Errorf("MaxPayload(1500) = %d, want 1472", got)
	}
	if got := MaxPayload(JumboMTU); got != 8972 {
		t.Errorf("MaxPayload(9000) = %d, want 8972", got)
	}
}

func TestResolver(t *testing.T) {
	r := NewResolver()
	ip := IPv4{10, 0, 0, 7}
	mac := MAC{2, 0, 0, 0, 0, 7}
	r.Add(ip, mac)
	got, err := r.Resolve(ip)
	if err != nil || got != mac {
		t.Errorf("Resolve = %v,%v", got, err)
	}
	if _, err := r.Resolve(IPv4{1, 2, 3, 4}); err == nil {
		t.Error("Resolve unknown: want error")
	}
}

func TestAddrStrings(t *testing.T) {
	if got := (MAC{0xde, 0xad, 0xbe, 0xef, 0, 1}).String(); got != "de:ad:be:ef:00:01" {
		t.Errorf("MAC.String = %q", got)
	}
	if got := (Endpoint{IP: IPv4{192, 168, 1, 9}, Port: 80}).String(); got != "192.168.1.9:80" {
		t.Errorf("Endpoint.String = %q", got)
	}
	if !BroadcastMAC.IsBroadcast() {
		t.Error("BroadcastMAC.IsBroadcast() = false")
	}
}

func BenchmarkEncodeUDP(b *testing.B) {
	buf := make([]byte, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeUDP(buf, testMeta, 1024, StandardMTU); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeUDP(b *testing.B) {
	buf := make([]byte, 2048)
	n, _ := EncodeUDP(buf, testMeta, 1024, StandardMTU)
	frame := buf[:n]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeUDP(frame); err != nil {
			b.Fatal(err)
		}
	}
}
