package nvm

import (
	"sync"
	"testing"
)

var allModels = []Model{ModelPrivateCache, ModelSharedCacheRaw, ModelSharedCacheAuto}

// keeps reports whether an unflushed store survives a crash under m.
func keeps(m Model) bool { return m != ModelSharedCacheRaw }

// TestBitsAreCells: every bit is a cell of its own — a distinct CellID from
// one contiguous reservation, visible to a crash plan at the primitive —
// and every primitive on a bit is a step, a statistic and a crash point.
func TestBitsAreCells(t *testing.T) {
	for _, m := range allModels {
		t.Run(m.String(), func(t *testing.T) {
			sp := NewSpaceModel(m)
			before := NewWord(sp, 0)
			const n = 70
			b := NewBits(sp, n)
			after := NewWord(sp, 0)
			if got := sp.CellCount(); got != n+2 {
				t.Fatalf("CellCount = %d, want %d", got, n+2)
			}

			var seen []int
			rec := planFunc(func(ctx *Ctx, _ OpKind) bool { seen = append(seen, ctx.CellID()); return false })
			ctx := sp.AcquireCtx(0, rec)
			before.Load(ctx)
			for i := 0; i < n; i++ {
				b.Load(ctx, i)
			}
			after.Load(ctx)
			ids := map[int]bool{}
			for k, id := range seen {
				if ids[id] {
					t.Fatalf("primitive %d reuses CellID %d", k, id)
				}
				ids[id] = true
				if k >= 1 && k <= n && id != b.base+k-1 {
					t.Fatalf("bit %d reported CellID %d, want %d", k-1, id, b.base+k-1)
				}
			}
			if len(ids) != n+2 {
				t.Fatalf("saw %d distinct cells, want %d contiguous", len(ids), n+2)
			}

			// A crash before the k-th store leaves exactly k-1 bits set, and
			// the statistics count one store (and under the transformation
			// one flush) per bit.
			perStore := uint64(1)
			if m == ModelSharedCacheAuto {
				perStore = 2
			}
			const k = 5
			sp.stats = Stats{}
			ctx = sp.AcquireCtx(0, CrashAtStep(perStore*(k-1)+1))
			func() {
				defer func() {
					if _, ok := recover().(Crashed); !ok {
						t.Fatalf("no Crashed panic at store %d", k)
					}
				}()
				for i := 0; i < n; i++ {
					b.Store(ctx, i, true)
				}
			}()
			sp.ReleaseCtx(ctx)
			if got := sp.Stats().Stores(); got != k-1 {
				t.Fatalf("stores = %d, want %d", got, k-1)
			}
			if m == ModelSharedCacheAuto && sp.Stats().Flushes() != k-1 {
				t.Fatalf("flushes = %d, want %d", sp.Stats().Flushes(), k-1)
			}
			for i := 0; i < n; i++ {
				if want := i < k-1 && keeps(m); b.Peek(i) != want {
					t.Fatalf("bit %d = %v after crash before store %d", i, b.Peek(i), k)
				}
			}
		})
	}
}

// planFunc adapts a function to CrashPlan.
type planFunc func(*Ctx, OpKind) bool

func (f planFunc) CrashBefore(ctx *Ctx, kind OpKind) bool { return f(ctx, kind) }

// TestBitsNeighboursUndisturbed: 8 writers flip their own bits of one word
// concurrently (run under -race in CI) while crashes land in between. A
// writer always reads back what it stored within the same attempt, and no
// store ever disturbs a neighbour, under any model.
func TestBitsNeighboursUndisturbed(t *testing.T) {
	for _, m := range allModels {
		t.Run(m.String(), func(t *testing.T) {
			const writers, rounds = 8, 2000
			sp := NewSpaceModel(m)
			b := NewBits(sp, 2*writers) // writer w owns bit 2w; odd bits are never written
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						func() {
							defer func() {
								if x := recover(); x != nil {
									if _, ok := x.(Crashed); !ok {
										panic(x)
									}
								}
							}()
							ctx := sp.AcquireCtx(w, nil)
							v := !b.Load(ctx, 2*w)
							b.Store(ctx, 2*w, v)
							if r%3 == 0 {
								b.Flush(ctx, 2*w)
							}
							if b.Load(ctx, 2*w) != v {
								t.Errorf("writer %d: bit %d does not read back %v", w, 2*w, v)
							}
							if b.Load(ctx, 2*w+1) {
								t.Errorf("bit %d was never written but reads 1", 2*w+1)
							}
						}()
						if w == 0 && r%100 == 99 {
							sp.Crash()
						}
					}
				}(w)
			}
			wg.Wait()
			ctx := sp.AcquireCtx(0, nil)
			for w := 0; w < writers; w++ {
				b.Store(ctx, 2*w, w%2 == 0)
			}
			for i := 0; i < 2*writers; i++ {
				if want := i%4 == 0; b.Peek(i) != want {
					t.Errorf("bit %d = %v, want %v", i, b.Peek(i), want)
				}
			}
		})
	}
}

func TestBitsIndexOutOfRange(t *testing.T) {
	sp := NewSpace()
	b := NewBits(sp, 10)
	defer func() {
		if recover() == nil {
			t.Fatalf("Store past Len did not panic")
		}
	}()
	b.Store(sp.AcquireCtx(0, nil), 10, true) // inside the word, outside the array
}

// mustPanicOutOfRange runs f and fails unless it panics.
func mustPanicOutOfRange(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s past Len did not panic", what)
		}
	}()
	f()
}

// Flush, Peek and PeekPersisted check the index like the primitives do:
// index 10 of a 10-bit array is inside the word, so nothing but the check
// stands between it and a bit that, in a shared array, is someone else's.
func TestBitsFlushIndexOutOfRange(t *testing.T) {
	for _, m := range allModels {
		sp := NewSpaceModel(m)
		b := NewBits(sp, 10)
		mustPanicOutOfRange(t, m.String()+": Flush", func() { b.Flush(sp.AcquireCtx(0, nil), 10) })
		mustPanicOutOfRange(t, m.String()+": Flush", func() { b.Flush(sp.AcquireCtx(0, nil), -1) })
	}
}

func TestBitsPeekIndexOutOfRange(t *testing.T) {
	for _, m := range allModels {
		b := NewBits(NewSpaceModel(m), 10)
		mustPanicOutOfRange(t, m.String()+": Peek", func() { b.Peek(10) })
		mustPanicOutOfRange(t, m.String()+": Peek", func() { b.Peek(-1) })
	}
}

func TestBitsPeekPersistedIndexOutOfRange(t *testing.T) {
	for _, m := range allModels {
		b := NewBits(NewSpaceModel(m), 10)
		mustPanicOutOfRange(t, m.String()+": PeekPersisted", func() { b.PeekPersisted(10) })
		mustPanicOutOfRange(t, m.String()+": PeekPersisted", func() { b.PeekPersisted(-1) })
	}
}

// TestSetRun: a run from bit 60 of 8 bits straddles two words and sets
// exactly bits 60–67, as 8 stores and 8 steps, under every model.
func TestSetRun(t *testing.T) {
	for _, m := range allModels {
		t.Run(m.String(), func(t *testing.T) {
			sp := NewSpaceModel(m)
			b := NewBits(sp, 130)
			ctx := sp.AcquireCtx(0, nil)
			b.SetRun(ctx, 60, 8)
			for i := 0; i < 130; i++ {
				if want := i >= 60 && i < 68; b.Peek(i) != want {
					t.Errorf("bit %d = %v, want %v", i, b.Peek(i), want)
				}
			}
			if got := ctx.Steps(); m != ModelSharedCacheAuto && got != 8 {
				t.Errorf("steps = %d, want 8", got)
			}
			sp.ReleaseCtx(ctx)
			if got := sp.Stats().Stores(); got != 8 {
				t.Errorf("stores = %d, want 8", got)
			}
		})
	}
}

// TestSetRunCrashesBetweenBits: with a plan armed every bit of the run is
// its own crash point, so a crash before the k-th store leaves the first
// k−1 bits set and counts k−1 stores.
func TestSetRunCrashesBetweenBits(t *testing.T) {
	const k = 4
	sp := NewSpace()
	b := NewBits(sp, 130)
	ctx := sp.AcquireCtx(0, CrashAtStep(k))
	func() {
		defer func() {
			if _, ok := recover().(Crashed); !ok {
				t.Fatal("no Crashed panic inside the run")
			}
		}()
		b.SetRun(ctx, 60, 8)
	}()
	sp.ReleaseCtx(ctx)
	for i := 58; i < 70; i++ {
		if want := i >= 60 && i < 60+k-1; b.Peek(i) != want {
			t.Errorf("bit %d = %v after a crash before store %d, want %v", i, b.Peek(i), k, want)
		}
	}
	if got := sp.Stats().Stores(); got != k-1 {
		t.Errorf("stores = %d, want %d", got, k-1)
	}
}

// TestAcquiredCtxCountsAtRelease: every primitive records its statistic,
// and a pooled context's primitives reach the shared Stats at ReleaseCtx,
// all of them and only once; Reset zeroes them.
func TestAcquiredCtxCountsAtRelease(t *testing.T) {
	sp := NewSpace()
	t.Run("primitives", func(t *testing.T) {
		c := NewCell(sp, 0)
		b := NewBits(sp, 64)
		ctx := sp.AcquireCtx(0, nil)
		c.Store(ctx, 1)
		c.Load(ctx)
		c.CompareAndSwap(ctx, 1, 2)
		b.SetRun(ctx, 0, 5)
		if got := sp.Stats().Total(); got != 0 {
			t.Fatalf("Stats counted %d primitives before ReleaseCtx", got)
		}
		sp.ReleaseCtx(ctx)
		if st := sp.Stats(); st.Stores() != 6 || st.Loads() != 1 || st.CASes() != 1 {
			t.Fatalf("stats = %d/%d/%d, want 6 stores, 1 load, 1 CAS", st.Stores(), st.Loads(), st.CASes())
		}
		again := sp.AcquireCtx(0, nil)
		sp.ReleaseCtx(again)
		if got := sp.Stats().Total(); got != 8 {
			t.Fatalf("a recycled context added its predecessor's counts again: total %d, want 8", got)
		}
	})
}
