//go:build perfbench

package main

import (
	"encoding/binary"
	"fmt"
)

// Every message starts with a 16-byte header — sequence number and
// payload length — followed by a pattern derived from the run's seed and
// the sequence number. The header is written and checked on every
// message; the pattern only on one message in patternEvery, so that the
// harness does not turn an 8 KB send into a memset benchmark.
const (
	headerLen    = 16
	patternEvery = 64
)

// patterned reports whether message seq carries (and is checked for) the
// full payload pattern.
func patterned(seq uint64) bool { return seq%patternEvery == 0 }

// mix is the splitmix64 finalizer: a cheap bijection that spreads seed
// and sequence number over all 64 bits.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fill writes message seq into payload.
func fill(payload []byte, seed, seq uint64) {
	binary.LittleEndian.PutUint64(payload[0:8], seq)
	binary.LittleEndian.PutUint64(payload[8:16], uint64(len(payload)))
	if !patterned(seq) {
		return
	}
	word := mix(seed ^ seq)
	body := payload[headerLen:]
	for len(body) >= 8 {
		binary.LittleEndian.PutUint64(body, word)
		word += 0x9e3779b97f4a7c15
		body = body[8:]
	}
	for i := range body {
		body[i] = byte(word >> (8 * i))
	}
}

// patternOK checks the body of a patterned message.
func patternOK(payload []byte, seed, seq uint64) bool {
	word := mix(seed ^ seq)
	body := payload[headerLen:]
	for len(body) >= 8 {
		if binary.LittleEndian.Uint64(body) != word {
			return false
		}
		word += 0x9e3779b97f4a7c15
		body = body[8:]
	}
	for i := range body {
		if body[i] != byte(word>>(8*i)) {
			return false
		}
	}
	return true
}

// oracle checks what one sink receives from one source: every message
// once, in order, with the length and bytes it was sent with. Each
// violation is counted as a failed operation and the first few are kept
// for the report.
type oracle struct {
	name string
	seed uint64
	size int
	next uint64 // sequence number expected next

	received                        uint64
	lost, reordered, corrupt, short uint64
	notes                           []string
}

func newOracle(name string, seed uint64, size int) *oracle {
	return &oracle{name: name, seed: seed, size: size}
}

// check verifies one received payload.
func (o *oracle) check(payload []byte) {
	o.received++
	if len(payload) != o.size || len(payload) < headerLen {
		o.short++
		o.note("length %d, want %d", len(payload), o.size)
		return
	}
	seq := binary.LittleEndian.Uint64(payload[0:8])
	switch {
	case seq == o.next:
		o.next++
	case seq > o.next:
		// A gap: the messages in between were dropped (or will arrive
		// late, and then count as reordered too).
		o.lost += seq - o.next
		o.note("sequence %d, want %d: %d lost", seq, o.next, seq-o.next)
		o.next = seq + 1
	default:
		o.reordered++
		o.note("sequence %d after %d", seq, o.next-1)
	}
	if binary.LittleEndian.Uint64(payload[8:16]) != uint64(o.size) {
		o.corrupt++
		o.note("sequence %d: length field %d, want %d", seq, binary.LittleEndian.Uint64(payload[8:16]), o.size)
		return
	}
	if patterned(seq) && !patternOK(payload, o.seed, seq) {
		o.corrupt++
		o.note("sequence %d: payload pattern mismatch", seq)
	}
}

// finish accounts for messages emitted but never received and returns the
// number of violations.
func (o *oracle) finish(emitted uint64) uint64 {
	if emitted > o.next {
		o.lost += emitted - o.next
		o.note("%d emitted, last in-order sequence %d: %d never arrived", emitted, o.next, emitted-o.next)
		o.next = emitted
	}
	return o.failures()
}

func (o *oracle) failures() uint64 { return o.lost + o.reordered + o.corrupt + o.short }

func (o *oracle) note(format string, args ...any) {
	if len(o.notes) < 5 {
		o.notes = append(o.notes, o.name+": "+fmt.Sprintf(format, args...))
	}
}
