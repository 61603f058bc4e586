package nvm

import "testing"

func TestCachedCellCrashLosesUnflushedStore(t *testing.T) {
	sp := NewSpace()
	c := NewCachedCell(sp, 1)
	ctx := sp.AcquireCtx(0, nil)
	c.Store(ctx, 2)
	if got := c.Load(ctx); got != 2 {
		t.Fatalf("Load = %d, want 2 (stores visible through the cache)", got)
	}
	sp.Crash()
	if got := c.PeekPersisted(); got != 1 {
		t.Fatalf("persisted = %d, want 1 (unflushed store must be lost)", got)
	}
	if got := c.Peek(); got != 1 {
		t.Fatalf("cached = %d, want 1 after revert", got)
	}
}

func TestCachedCellFlushPersists(t *testing.T) {
	sp := NewSpace()
	c := NewCachedCell(sp, 1)
	ctx := sp.AcquireCtx(0, nil)
	c.Store(ctx, 2)
	c.Flush(ctx)
	sp.Crash()
	if got := c.PeekPersisted(); got != 2 {
		t.Fatalf("persisted = %d, want 2 (flushed store must survive)", got)
	}
}

func TestCachedCellCASIsVolatileUntilFlushed(t *testing.T) {
	sp := NewSpace()
	c := NewCachedCell(sp, 1)
	ctx := sp.AcquireCtx(0, nil)
	if !c.CompareAndSwap(ctx, 1, 9) {
		t.Fatal("CAS(1,9) failed")
	}
	sp.Crash()
	if got := c.PeekPersisted(); got != 1 {
		t.Fatalf("persisted = %d, want 1 (unflushed CAS lost on crash)", got)
	}
}

func TestCachedCellFailedCAS(t *testing.T) {
	sp := NewSpace()
	c := NewCachedCell(sp, 1)
	ctx := sp.AcquireCtx(0, nil)
	if c.CompareAndSwap(ctx, 5, 9) {
		t.Fatal("CAS(5,9) on value 1 succeeded")
	}
	if got := c.Load(ctx); got != 1 {
		t.Fatalf("Load = %d, want 1", got)
	}
}

func TestAutoPersistSurvivesCrash(t *testing.T) {
	sp := NewSpace()
	raw := NewCachedCell(sp, 0)
	c := NewAutoPersist[int](raw)
	ctx := sp.AcquireCtx(0, nil)

	c.Store(ctx, 3)
	sp.Crash()
	if got := raw.PeekPersisted(); got != 3 {
		t.Fatalf("persisted after AutoPersist.Store = %d, want 3", got)
	}

	ctx = sp.AcquireCtx(0, nil)
	if !c.CompareAndSwap(ctx, 3, 4) {
		t.Fatal("CAS(3,4) failed")
	}
	sp.Crash()
	if got := raw.PeekPersisted(); got != 4 {
		t.Fatalf("persisted after AutoPersist.CAS = %d, want 4", got)
	}
}

func TestAutoPersistFlushCount(t *testing.T) {
	sp := NewSpace()
	c := NewAutoPersist[int](NewCachedCell(sp, 0))
	ctx := sp.AcquireCtx(0, nil)
	c.Store(ctx, 1)
	c.CompareAndSwap(ctx, 1, 2)
	c.Load(ctx)
	sp.ReleaseCtx(ctx)
	if got := sp.Stats().Flushes(); got != 2 {
		t.Fatalf("flushes = %d, want 2 (one per store, one per CAS, none for load)", got)
	}
}

func TestSpaceCellCount(t *testing.T) {
	sp := NewSpace()
	NewCell(sp, 0)
	NewCell(sp, "x")
	NewCachedCell(sp, false)
	if got := sp.CellCount(); got != 3 {
		t.Fatalf("CellCount = %d, want 3", got)
	}
}

// TestSpaceSpare: a slab's cells are counted as its elements are handed
// out, while their identities are reserved — and stay — where the slab was
// allocated.
func TestSpaceSpare(t *testing.T) {
	sp := NewSpace()
	NewCell(sp, 0)
	slab := NewBits(sp, 8)
	sp.Spare(8)
	if got := sp.CellCount(); got != 1 {
		t.Fatalf("CellCount = %d with the slab spare, want 1", got)
	}
	sp.Spare(-3)
	if got := sp.CellCount(); got != 4 {
		t.Fatalf("CellCount = %d with three bits handed out, want 4", got)
	}
	if got := slab.CellID(0); got != 2 {
		t.Fatalf("slab bit 0 is cell %d, want 2", got)
	}
	if next := NewBits(sp, 1).CellID(0); next != 10 {
		t.Fatalf("the cell after the slab is cell %d, want 10", next)
	}
}

func TestCrashedError(t *testing.T) {
	var err error = Crashed{PID: 1}
	if err.Error() == "" {
		t.Fatal("Crashed.Error() is empty")
	}
}

func TestEpochAdvance(t *testing.T) {
	var e Epoch
	if e.Current() != 0 {
		t.Fatalf("initial epoch = %d, want 0", e.Current())
	}
	if got := e.Advance(); got != 1 {
		t.Fatalf("Advance = %d, want 1", got)
	}
	if got := e.Advance(); got != 2 {
		t.Fatalf("second Advance = %d, want 2", got)
	}
}
