package mempool

import (
	"errors"
	"sync"
	"testing"
)

func newBudgetManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(Config{Classes: []ClassConfig{{SlotSize: 256, Slots: 16}}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBudgetCapsBorrows(t *testing.T) {
	m := newBudgetManager(t)
	b := NewBudget(2)

	id1, _, err := m.GetBudget(64, 1, b)
	if err != nil {
		t.Fatal(err)
	}
	id2, _, err := m.GetBudget(64, 1, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.GetBudget(64, 1, b); !errors.Is(err, ErrQuota) {
		t.Fatalf("third borrow: got %v, want ErrQuota", err)
	}
	// The tenant refused the borrow, not the pools.
	if f := m.Stats().Failures; f != 0 {
		t.Fatalf("Failures = %d after a quota refusal, want 0", f)
	}
	if got := b.Used(); got != 2 {
		t.Fatalf("Used = %d, want 2", got)
	}

	// Releasing one slot frees one unit of budget.
	if err := m.Release(id1); err != nil {
		t.Fatal(err)
	}
	if got := b.Used(); got != 1 {
		t.Fatalf("Used after release = %d, want 1", got)
	}
	id3, _, err := m.GetBudget(64, 1, b)
	if err != nil {
		t.Fatalf("borrow after release: %v", err)
	}
	_ = m.Release(id2)
	_ = m.Release(id3)
	if got := b.Used(); got != 0 {
		t.Fatalf("Used after all releases = %d, want 0", got)
	}
}

func TestBudgetMultiRefUnchargesOnFinalRelease(t *testing.T) {
	m := newBudgetManager(t)
	b := NewBudget(1)

	id, _, err := m.GetBudget(64, 1, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddRef(id, 2); err != nil {
		t.Fatal(err)
	}
	_ = m.Release(id)
	_ = m.Release(id)
	if got := b.Used(); got != 1 {
		t.Fatalf("Used before final release = %d, want 1", got)
	}
	_ = m.Release(id)
	if got := b.Used(); got != 0 {
		t.Fatalf("Used after final release = %d, want 0", got)
	}
}

func TestBudgetReleaseOwnerReclaims(t *testing.T) {
	m := newBudgetManager(t)
	b := NewBudget(4)
	for i := 0; i < 3; i++ {
		if _, _, err := m.GetBudget(64, 7, b); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.ReleaseOwner(7); n != 3 {
		t.Fatalf("ReleaseOwner reclaimed %d, want 3", n)
	}
	if got := b.Used(); got != 0 {
		t.Fatalf("Used after ReleaseOwner = %d, want 0", got)
	}
}

func TestBudgetUnlimitedGaugesOnly(t *testing.T) {
	m := newBudgetManager(t)
	b := NewBudget(0)
	ids := make([]SlotID, 0, 8)
	for i := 0; i < 8; i++ {
		id, _, err := m.GetBudget(64, 1, b)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if got := b.Used(); got != 8 {
		t.Fatalf("Used = %d, want 8", got)
	}
	if got := b.Limit(); got != 0 {
		t.Fatalf("Limit = %d, want 0", got)
	}
	for _, id := range ids {
		_ = m.Release(id)
	}
}

// TestBudgetConcurrent hammers one capped budget from many goroutines;
// under -race this doubles as the happens-before proof for the plain
// slotState.budget field.
func TestBudgetConcurrent(t *testing.T) {
	m, err := NewManager(Config{Classes: []ClassConfig{{SlotSize: 256, Slots: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBudget(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(owner Owner) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id, _, err := m.GetBudget(64, owner, b)
				if errors.Is(err, ErrQuota) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				_ = m.Release(id)
			}
		}(Owner(g + 1))
	}
	wg.Wait()
	if got := b.Used(); got != 0 {
		t.Fatalf("Used after drain = %d, want 0", got)
	}
	if free := m.FreeSlots()[0]; free != 64 {
		t.Fatalf("free slots = %d, want 64", free)
	}
}
