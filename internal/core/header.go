// Package core implements the INSANE runtime (§5.3): the userspace module
// that centralizes host networking and offers it as a service to local
// applications. It contains the four architectural components of Fig. 3 —
// memory manager (internal/mempool), packet scheduler (internal/sched),
// polling threads, and datapath plugins (internal/datapath/...) — plus the
// session/stream/channel bookkeeping behind the client library API.
//
// The client library and the runtime communicate exclusively by exchanging
// memory-slot tokens over lock-free rings (internal/ringbuf), mirroring the
// shared-memory IPC of the C prototype; payload bytes are written once by
// the application into a pool slot and never copied inside the host.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/model"
)

// HeaderLen is the size of the INSANE transport header that precedes every
// message on the wire. The header sits between the (technology-specific)
// network headers and the application payload.
const HeaderLen = 16

// MsgHeadroom is the slot space reserved before the application payload:
// room for the technology frame headers plus the INSANE header, so that
// framing happens in place (zero-copy).
const MsgHeadroom = datapath.Headroom + HeaderLen

// headerMagic identifies INSANE traffic.
const headerMagic = 0x1A5E

// headerVersion is the current wire version.
const headerVersion = 1

// msgKind discriminates data from control-plane messages.
type msgKind uint8

// Message kinds.
const (
	kindData msgKind = iota + 1
	// kindSub announces that the sender hosts sinks for a channel,
	// reachable via the technology in the aux field.
	kindSub
	// kindUnsub withdraws a previous subscription.
	kindUnsub
)

// header is the INSANE transport header.
//
// Layout (16 bytes): magic u16 | version u8 | kind u8 | channel u32 |
// class u8 | aux u8 | seq u32 | flags u8 | reserved u8.
type header struct {
	kind    msgKind
	channel uint32
	// class is the 802.1Qbv traffic class of data messages.
	class uint8
	// aux carries the subscriber's reachable technology on kindSub /
	// kindUnsub messages.
	aux uint8
	// seq is the source-local sequence number of data messages.
	seq uint32
	// sampled carries the source's sampling decision to the receiving
	// runtime, so both ends of a path time the same message (DESIGN.md §8).
	sampled bool
}

// flagSampled is header.sampled on the wire. The other flag bits and the
// reserved byte are written as zero and ignored when read.
const flagSampled = 1 << 0

// errBadHeader reports a malformed or foreign INSANE header.
var errBadHeader = errors.New("core: bad INSANE header")

// encodeHeader writes h into buf (length >= HeaderLen).
func encodeHeader(buf []byte, h header) {
	binary.BigEndian.PutUint16(buf[0:2], headerMagic)
	buf[2] = headerVersion
	buf[3] = byte(h.kind)
	binary.BigEndian.PutUint32(buf[4:8], h.channel)
	buf[8] = h.class
	buf[9] = h.aux
	binary.BigEndian.PutUint32(buf[10:14], h.seq)
	buf[14], buf[15] = 0, 0
	if h.sampled {
		buf[14] = flagSampled
	}
}

// decodeHeader parses and validates an INSANE header. It returns the
// static errBadHeader sentinel on every failure: the RX poll loop calls
// it per packet, and a hostile sender spraying malformed frames must
// not be able to drive per-packet error formatting (hot-path rule;
// match on errors.Is(err, errBadHeader) rather than the message).
func decodeHeader(buf []byte) (header, error) {
	if len(buf) < HeaderLen {
		return header{}, errBadHeader
	}
	if binary.BigEndian.Uint16(buf[0:2]) != headerMagic {
		return header{}, errBadHeader
	}
	if buf[2] != headerVersion {
		return header{}, errBadHeader
	}
	k := msgKind(buf[3])
	if k < kindData || k > kindUnsub {
		return header{}, errBadHeader
	}
	return header{
		kind:    k,
		channel: binary.BigEndian.Uint32(buf[4:8]),
		class:   buf[8],
		aux:     buf[9],
		seq:     binary.BigEndian.Uint32(buf[10:14]),
		sampled: buf[14]&flagSampled != 0,
	}, nil
}

// techFromAux converts a subscription message's aux byte back to a Tech,
// validating the range.
func techFromAux(aux uint8) (model.Tech, error) {
	t := model.Tech(aux)
	switch t {
	case model.TechKernelUDP, model.TechXDP, model.TechDPDK, model.TechRDMA:
		return t, nil
	default:
		return 0, fmt.Errorf("%w: tech %d", errBadHeader, aux)
	}
}
