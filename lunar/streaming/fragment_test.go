package streaming

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"github.com/insane-mw/insane/insane"
)

// fragment builds one wire fragment with the given header words.
func fragment(id, idx, count, total uint32, chunk []byte) *insane.Message {
	p := make([]byte, fragHeaderLen+len(chunk))
	binary.BigEndian.PutUint32(p[0:4], id)
	binary.BigEndian.PutUint32(p[4:8], idx)
	binary.BigEndian.PutUint32(p[8:12], count)
	binary.BigEndian.PutUint32(p[12:16], total)
	copy(p[fragHeaderLen:], chunk)
	return &insane.Message{Payload: p}
}

// bareClient is a client with no session behind it: onFragment is fed by
// hand, the way the sink's callback pump feeds it.
func bareClient() *Client { return &Client{notify: make(chan struct{}, 1)} }

// TestFragmentHeaderIsNotTrusted: the four header words come off the wire.
// A fragment whose words disagree with each other, with its own length or
// with the assembly it would join is ignored — no panic, no allocation by
// an unchecked word — and the frame it tried to disturb still completes.
func TestFragmentHeaderIsNotTrusted(t *testing.T) {
	full := bytes.Repeat([]byte{0xAB}, MaxFragPayload)
	tail := []byte("tail")
	total := uint32(MaxFragPayload + len(tail))

	c := bareClient()
	c.onFragment(fragment(7, 0, 2, total, full))
	for name, m := range map[string]*insane.Message{
		// The reproduced panic: the same frame id with a larger count
		// indexed seen[3] of a 2-long assembly.
		"same id, larger count":       fragment(7, 3, 4, 3*MaxFragPayload+1, []byte{1}),
		"same id, other total":        fragment(7, 1, 2, total+1, append(tail, 0)),
		"count not the server's rule": fragment(8, 0, 5, total, full),
		"index past count":            fragment(8, 2, 2, total, tail),
		"short middle fragment":       fragment(8, 0, 2, total, tail),
		"long last fragment":          fragment(8, 1, 2, total, full),
		"truncated header":            {Payload: make([]byte, fragHeaderLen-1)},
	} {
		c.onFragment(m)
		if len(c.building) != 1 || len(c.ready) != 0 {
			t.Fatalf("%s: %d assemblies and %d frames after a fragment that must be ignored", name, len(c.building), len(c.ready))
		}
	}
	c.onFragment(fragment(7, 1, 2, total, tail))
	if len(c.ready) != 1 || !bytes.Equal(c.ready[0].Data, append(full, tail...)) || c.ready[0].Fragments != 2 {
		t.Fatalf("frame 7 did not complete intact after the hostile fragments: %d ready", len(c.ready))
	}

	// One 26-byte fragment claiming a 1 GiB frame of a million fragments
	// used to allocate both before looking at its ten bytes.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.onFragment(fragment(9, 0, 1<<20, 1<<30, make([]byte, 10)))
	c.onFragment(fragment(10, 0, 1, 1<<31, make([]byte, 10)))
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 || len(c.building) != 0 {
		t.Errorf("an oversized header allocated %d bytes and opened %d assemblies", grew, len(c.building))
	}
}

// TestIncompleteFramesAreEvicted: a frame that lost a fragment never
// completes. The client keeps at most maxPending of them, gives up the
// oldest for each new one and counts it, and still completes the frames
// that do arrive whole.
func TestIncompleteFramesAreEvicted(t *testing.T) {
	full := bytes.Repeat([]byte{0xCD}, MaxFragPayload)
	total := uint32(2 * MaxFragPayload)
	c := bareClient()
	const lossy = 100
	for id := uint32(1); id <= lossy; id++ {
		c.onFragment(fragment(id, 0, 2, total, full)) // fragment 1 of 2 is lost
		if len(c.building) > maxPending {
			t.Fatalf("%d assemblies pending after frame %d, want at most %d", len(c.building), id, maxPending)
		}
	}
	if got := c.Dropped(); got != lossy-maxPending {
		t.Errorf("Dropped = %d after %d incomplete frames, want %d", got, lossy, lossy-maxPending)
	}
	if oldest := c.building[0].id; oldest != lossy-maxPending+1 {
		t.Errorf("oldest pending frame is %d, want %d: eviction is not oldest first", oldest, lossy-maxPending+1)
	}
	// The late second half of a frame still pending completes it; that of
	// an evicted one opens a new assembly and evicts the next oldest.
	c.onFragment(fragment(lossy, 1, 2, total, full))
	if len(c.ready) != 1 || c.ready[0].ID != lossy || len(c.building) != maxPending-1 {
		t.Errorf("%d frames ready and %d pending after the last frame's missing half arrived", len(c.ready), len(c.building))
	}
}

// FuzzOnFragment feeds arbitrary bytes to a client that has one frame
// under reassembly, as a fragment whose header words are small enough to
// agree now and then and as a raw fragment: whatever they say, the callback
// pump survives, the pending table stays bounded, and every frame handed to
// the application is as long as its fragments said. Named seeds are in
// testdata/fuzz/FuzzOnFragment.
func FuzzOnFragment(f *testing.F) {
	full := bytes.Repeat([]byte{0xEF}, MaxFragPayload)
	f.Add(fragment(2, 0, 1, 4, []byte("whol")).Payload)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := bareClient()
		c.onFragment(fragment(1, 0, 2, 2*MaxFragPayload, full))
		// The fuzzer's first bytes pick the id, the index and the length.
		if len(data) >= 3 {
			total := uint32(data[2]) * 100
			idx := uint32(data[1]) % 4
			chunk := data[3:]
			if want := int(total) - int(idx)*MaxFragPayload; want >= 0 && want < len(chunk) {
				chunk = chunk[:want]
			}
			c.onFragment(fragment(uint32(data[0]%4), idx, uint32(fragCount(int(total))), total, chunk))
		}
		// A header that is consistent may ask for a frame of up to 1 GiB,
		// which the client then rightly allocates; the fuzzer's machine is
		// shared, so it is not handed those (the unit test covers the cap).
		if len(data) < fragHeaderLen || binary.BigEndian.Uint32(data[12:16]) <= 1<<20 {
			c.onFragment(&insane.Message{Payload: data})
		}
		if len(c.building) > maxPending {
			t.Fatalf("%d assemblies pending, want at most %d", len(c.building), maxPending)
		}
		for _, fr := range c.ready {
			if fr.Fragments != fragCount(len(fr.Data)) {
				t.Fatalf("frame %d: %d bytes from %d fragments", fr.ID, len(fr.Data), fr.Fragments)
			}
		}
	})
}
