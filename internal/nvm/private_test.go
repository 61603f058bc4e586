package nvm

import "testing"

// peekPrivate returns p's current logical value without a Ctx; p's owner
// must be quiescent.
func peekPrivate[T any](p *Private[T]) T {
	if p.epoch != nil && p.at != p.epoch.Current() {
		return p.persisted
	}
	return p.v
}

type privRec struct{ A, B, C int }

// TestPrivateIsACell: an owner-only word's primitives are steps, statistics
// and crash points like any cell's, it has a CellID of its own, and storing
// a struct it has never held allocates nothing.
func TestPrivateIsACell(t *testing.T) {
	for _, m := range allModels {
		t.Run(m.String(), func(t *testing.T) {
			sp := NewSpaceModel(m)
			a, p := NewWord(sp, 0), NewPrivate(sp, privRec{})
			var seen []int
			ctx := sp.AcquireCtx(0, planFunc(func(ctx *Ctx, _ OpKind) bool { seen = append(seen, ctx.CellID()); return false }))
			a.Load(ctx)
			p.Load(ctx)
			if len(seen) != 2 || seen[0] == seen[1] || seen[1] != sp.CellCount() {
				t.Fatalf("CellIDs %v, want two distinct ids ending at CellCount %d", seen, sp.CellCount())
			}

			sp.stats = Stats{}
			ctx = sp.AcquireCtx(0, CrashAtStep(2))
			p.Load(ctx) // step 1
			func() {
				defer func() {
					if _, ok := recover().(Crashed); !ok {
						t.Fatalf("no Crashed panic at step 2")
					}
				}()
				p.Store(ctx, privRec{A: 5}) // step 2: dies before storing
			}()
			sp.ReleaseCtx(ctx)
			if got := peekPrivate(p); got.A != 0 {
				t.Fatalf("store landed despite the crash before it: %+v", got)
			}
			if st := sp.Stats(); st.Loads() != 1 || st.Stores() != 0 {
				t.Fatalf("stats loads=%d stores=%d, want 1/0", st.Loads(), st.Stores())
			}

			ctx = sp.AcquireCtx(0, nil)
			i := 0
			if allocs := testing.AllocsPerRun(200, func() {
				i++
				p.Store(ctx, privRec{A: i, B: i, C: i})
				if p.Load(ctx).A != i {
					t.Fatal("lost store")
				}
			}); allocs != 0 {
				t.Fatalf("store of a fresh struct allocates %v/op, want 0", allocs)
			}
			sp.ReleaseCtx(ctx)
			wantFlushes := uint64(0)
			if m == ModelSharedCacheAuto {
				wantFlushes = 201 // AllocsPerRun runs the function once to warm up
			}
			if got := sp.Stats().Flushes(); got != wantFlushes {
				t.Fatalf("flushes = %d, want %d", got, wantFlushes)
			}
		})
	}
}
