// Package a exercises every paircheck diagnostic class inside one
// package: leak on an error path, a release on a failed-conditional-
// acquire path, a double release, an iteration-end leak, an acquire in
// return position of an undeclared function, an ignored conditional
// result, stale declarations and waivers — plus the clean patterns
// (defer, guard conjuncts, conditional transfer, forwarding) that must
// stay silent.
package a

import "errors"

// Slot is the tracked resource unit.
type Slot struct{ n int }

var errFull = errors.New("full")

// ---- annotated primitives (trusted: no annotated calls inside) ------

//insane:acquire resource=slot on=nilerr
func getSlot() (*Slot, error) { return &Slot{}, nil }

//insane:release resource=slot
func putSlot(s *Slot) { _ = s }

//insane:acquire resource=tok on=true
func tryCharge() bool { return true }

//insane:release resource=tok
func uncharge() {}

//insane:transfer resource=tok on=true
func push(s *Slot) bool { return s != nil }

// tenant carries the method forms used by the guard tests.
type tenant struct{ used int }

//insane:acquire resource=tok on=true
func (t *tenant) charge() bool { return true }

//insane:release resource=tok
func (t *tenant) uncharge() {}

// bad is an opaque, unannotated predicate.
func bad() bool { return false }

// use is an opaque, unannotated consumer that takes no ownership.
func use(s *Slot) { _ = s }

// ---- leak on an error path ------------------------------------------

func leakOnError() error {
	s, err := getSlot()
	if err != nil {
		return err
	}
	if bad() {
		return errors.New("mid") // want `resource slot acquired via getSlot at line \d+ is not released on this return path`
	}
	putSlot(s)
	return nil
}

// ---- release on a path where the conditional acquire failed ---------

func releaseAfterFailedCharge() {
	ok := tryCharge()
	if !ok {
		uncharge() // want `release of resource tok via uncharge on a path where the conditional acquire at line \d+ did not succeed`
		return
	}
	uncharge()
}

// ---- double release --------------------------------------------------

func doubleRelease() {
	s, err := getSlot()
	if err != nil {
		return
	}
	putSlot(s)
	putSlot(s) // want `resource slot already released via putSlot at line \d+ is released again via putSlot \(double release\)`
}

// ---- iteration-end leak ---------------------------------------------

func leakPerLap() {
	for i := 0; i < 4; i++ {
		s, err := getSlot()
		if err != nil {
			continue
		}
		use(s)
	} // want `resource slot acquired via getSlot at line \d+ is still held at the end of the loop iteration; it leaks once per lap`
}

// releasedPerLap is the clean twin: each lap returns its unit before
// the iteration ends.
func releasedPerLap() {
	for i := 0; i < 4; i++ {
		s, err := getSlot()
		if err != nil {
			continue
		}
		putSlot(s)
	}
}

// ---- acquire in return position of an undeclared function -----------

func wrapGet() (*Slot, error) {
	return getSlot() // want `resource slot acquired via getSlot in return position of a function not declared //insane:acquire resource=slot`
}

// wrapGetDeclared forwards legally: the declaration moves the
// obligation to its callers.
//
//insane:acquire resource=slot on=nilerr
func wrapGetDeclared() (*Slot, error) {
	return getSlot()
}

// ---- ignored conditional-acquire result -----------------------------

func ignoredGate() {
	tryCharge() // want `result of conditional acquire tryCharge \(resource tok\) is ignored`
}

// ---- conditional acquire whose gate is never checked ----------------

func gateNeverChecked() {
	s, err := getSlot()
	use(s)
	_ = err
} // want `resource slot conditionally acquired via getSlot at line \d+ may leak: its gate is never checked`

// ---- stale declaration: no unit held at a success return ------------

//insane:acquire resource=slot on=nilerr
func staleAcquire() (*Slot, error) {
	s, err := getSlot()
	if err != nil {
		return nil, err
	}
	putSlot(s)
	return nil, nil // want `declared //insane:acquire resource=slot, but no unit is held at this success return`
}

// ---- declared acquirer filling a struct its caller owns -------------

// slotBox mimics a caller-owned API struct a core call fills in place.
type slotBox struct{ s *Slot }

// fillHolder hands the unit over by storing it through the parameter:
// the caller sees the obligation through the declaration.
//
//insane:acquire resource=slot on=nilerr
func fillHolder(h *slotBox) error {
	s, err := getSlot()
	if err != nil {
		return err
	}
	*h = slotBox{s: s}
	return nil
}

// fillNothing claims to acquire into the parameter but stores nothing.
//
//insane:acquire resource=slot on=nilerr
func fillNothing(h *slotBox) error {
	s, err := getSlot()
	if err != nil {
		return err
	}
	putSlot(s)
	return nil // want `declared //insane:acquire resource=slot, but no unit is held at this success return`
}

// useFilled balances a unit acquired into a local struct.
func useFilled() error {
	var h slotBox
	if err := fillHolder(&h); err != nil {
		return err
	}
	putSlot(h.s)
	return nil
}

// leakFilled forgets it.
func leakFilled() error {
	var h slotBox
	if err := fillHolder(&h); err != nil {
		return err
	}
	return nil // want `resource slot acquired via fillHolder at line \d+ is not released on this return path`
}

// filler mimics a handle whose acquirer fills a caller-owned struct.
type filler struct{ done chan struct{} }

//insane:acquire resource=slot on=nilerr
func (f *filler) fill(h *slotBox) error { return fillHolder(h) }

// pump acquires into a per-lap struct by address. The unit answers to
// that struct, not to the receiver of the call that filled it — keyed on
// the receiver, the deferred close(f.done) would pass for its cleanup.
func (f *filler) pump() {
	defer close(f.done)
	for {
		var h slotBox
		if err := f.fill(&h); err != nil {
			return
		}
		use(h.s)
	} // want `resource slot acquired via \(\*filler\).fill at line \d+ is still held at the end of the loop iteration`
}

// ---- declared acquirer leaking on a recognizable failure return -----

//insane:acquire resource=slot on=nilerr
func acquireThenFail() (*Slot, error) {
	s, err := getSlot()
	if err != nil {
		return nil, err
	}
	if bad() {
		return nil, errFull // want `resource slot acquired via getSlot at line \d+ leaks on this failure return`
	}
	return s, nil
}

// ---- stale waiver ----------------------------------------------------

//insane:unbalanced resource=slot by=kept for the stale-waiver fixture
func waivedClean() { // want `//insane:unbalanced resource=slot: every path of waivedClean is balanced; remove the stale waiver`
	s, err := getSlot()
	if err != nil {
		return
	}
	putSlot(s)
}

// waivedLeak holds a unit past its exit on purpose; the verified
// waiver silences the leak finding and is itself not flagged.
//
//insane:unbalanced resource=slot by=unit parked in the package registry for tests
func waivedLeak() {
	s, _ := getSlot()
	use(s)
}

// ---- clean patterns that must stay silent ---------------------------

// deferRelease releases through a defer on every path.
func deferRelease() error {
	s, err := getSlot()
	if err != nil {
		return err
	}
	defer putSlot(s)
	if bad() {
		return errFull
	}
	return nil
}

// chargeAndPush is the TX-token shape: conditional acquire, transfer
// into a lane, explicit refund when the push fails.
func chargeAndPush(s *Slot) error {
	if !tryCharge() {
		return errFull
	}
	if !push(s) {
		uncharge()
		return errFull
	}
	return nil
}

// guarded hides the acquire behind a nil check and refunds behind the
// same check — the short-circuit guard machinery must connect the two.
func guarded(t *tenant, s *Slot) error {
	if t != nil && !t.charge() {
		return errFull
	}
	if !push(s) {
		if t != nil {
			t.uncharge()
		}
		return errFull
	}
	return nil
}

// retryPush loops on backpressure without re-acquiring: the token was
// acquired outside the loop, so the iteration-end check stays quiet.
func retryPush(s *Slot) error {
	if !tryCharge() {
		return errFull
	}
	for i := 0; i < 8; i++ {
		if push(s) {
			return nil
		}
	}
	uncharge()
	return errFull
}

// storedAway parks the unit in the receiver: the obligation moves to
// whoever owns the struct.
type holder struct{ s *Slot }

func (h *holder) storedAway() error {
	s, err := getSlot()
	if err != nil {
		return err
	}
	h.s = s
	return nil
}

// panicPath terminates without returning; paths into panic are not
// exits that demand balance.
func panicPath() {
	s, err := getSlot()
	if err != nil {
		panic(err)
	}
	putSlot(s)
}

// ---- the three refinement regressions -------------------------------

// emit is a conditional transfer primitive gated on its error result,
// like Source.Emit: the unit moved iff the error is nil.
//
//insane:transfer resource=slot on=nilerr
func emit(s *Slot) error {
	if s == nil {
		return errRetry
	}
	return nil
}

var errRetry = errors.New("retry")

// heldAcrossLaps holds one unit in a variable declared before the loop
// and retries emitting it: the holder survives iterations, so the
// iteration-end check must stay silent; the exits still balance.
func heldAcrossLaps() error {
	s, err := getSlot()
	if err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		if err := emit(s); err == nil {
			return nil
		}
	}
	putSlot(s)
	return errFull
}

// twoUnits holds two units and hands only one to the transfer call: the
// key match must keep the other unit tracked, and releasing it after
// the transfer is not a double release.
func twoUnits() error {
	a, err := getSlot()
	if err != nil {
		return err
	}
	b, err := getSlot()
	if err != nil {
		putSlot(a)
		return err
	}
	if err := emit(b); err != nil {
		putSlot(b)
		putSlot(a)
		return err
	}
	putSlot(a)
	return nil
}

// publishLike retries a conditional transfer and returns any other
// error without resolving the transfer gate: on that path the unit may
// still be held.
func publishLike() error {
	s, err := getSlot()
	if err != nil {
		return err
	}
	for {
		err := emit(s)
		if !errors.Is(err, errRetry) {
			return err // want `resource slot handed to conditional transfer emit at line \d+ may not have moved`
		}
	}
}

// ---- alias propagation ----------------------------------------------

// box wraps a unit in a local carrier, like a delivery wrapped into a
// pooled message.
type box struct{ s *Slot }

func wrap(s *Slot) *box { return &box{s: s} }

//insane:release resource=slot
func putBox(b *box) { _ = b }

// pumpLike acquires, wraps, and releases through the wrapper: alias
// propagation must connect putBox(b) back to the unit acquired into s,
// keeping both the iteration-end and the exit checks silent.
func pumpLike() {
	for {
		s, err := getSlot()
		if err != nil {
			return
		}
		b := wrap(s)
		use(b.s)
		putBox(b)
	}
}
