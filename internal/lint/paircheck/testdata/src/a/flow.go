package a

// The case below pins the flow engine's single answer at a point where
// the per-rule walkers used to disagree (internal/lint/flow).

// A fallthrough carries its state into the next clause: the slot
// acquired in case 1 is still owed at case 2's return.
func fallthroughCarries(n int) error {
	switch n {
	case 1:
		s, err := getSlot()
		if err != nil {
			return err
		}
		use(s)
		fallthrough
	case 2:
		return nil // want `resource slot acquired via getSlot at line \d+ is not released on this return path`
	}
	return nil
}
