package nvm

import "testing"

// crashCells is one shape of cell seen through the values 0 and 1: three
// cells of it, 0, 1 and 2, and its primitives. cas is nil for a shape
// without one.
type crashCells struct {
	store func(ctx *Ctx, c, v int)
	cas   func(ctx *Ctx, c, old, v int) bool
	flush func(ctx *Ctx, c int)
	load  func(ctx *Ctx, c int) int
	peek  func(c int) int
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

var crashShapes = []struct {
	name  string
	build func(sp *Space) crashCells
}{
	{"words-int", func(sp *Space) crashCells {
		ws := NewWords(sp, 3, 0)
		return crashCells{
			func(ctx *Ctx, c, v int) { ws.Store(ctx, c, v) },
			func(ctx *Ctx, c, old, v int) bool { return ws.CompareAndSwap(ctx, c, old, v) },
			func(ctx *Ctx, c int) { ws.Flush(ctx, c) },
			func(ctx *Ctx, c int) int { return ws.Load(ctx, c) },
			func(c int) int { return ws.Peek(c) },
		}
	}},
	{"words-struct", func(sp *Space) crashCells {
		ws := NewWords(sp, 3, privRec{})
		rec := func(v int) privRec { return privRec{A: v, B: -v} }
		return crashCells{
			func(ctx *Ctx, c, v int) { ws.Store(ctx, c, rec(v)) },
			func(ctx *Ctx, c, old, v int) bool { return ws.CompareAndSwap(ctx, c, rec(old), rec(v)) },
			func(ctx *Ctx, c int) { ws.Flush(ctx, c) },
			func(ctx *Ctx, c int) int { return ws.Load(ctx, c).A },
			func(c int) int { return ws.Peek(c).A },
		}
	}},
	{"bits", func(sp *Space) crashCells {
		b, at := NewBits(sp, 130), [3]int{3, 5, 129} // 0 and 1 share a word; 2 is in the last
		return crashCells{
			func(ctx *Ctx, c, v int) { b.Store(ctx, at[c], v == 1) },
			nil,
			func(ctx *Ctx, c int) { b.Flush(ctx, at[c]) },
			func(ctx *Ctx, c int) int { return b2i(b.Load(ctx, at[c])) },
			func(c int) int { // right after a crash: what a bit holds is what is persisted
				if v := b.Peek(at[c]); v == b.PeekPersisted(at[c]) {
					return b2i(v)
				}
				return -1
			},
		}
	}},
	{"private", func(sp *Space) crashCells {
		ps := [3]*Private[privRec]{NewPrivate(sp, privRec{}), NewPrivate(sp, privRec{}), NewPrivate(sp, privRec{})}
		return crashCells{
			func(ctx *Ctx, c, v int) { ps[c].Store(ctx, privRec{A: v}) },
			nil,
			func(ctx *Ctx, c int) { ps[c].Flush(ctx) },
			func(ctx *Ctx, c int) int { return ps[c].Load(ctx).A },
			func(c int) int { return peekPrivate(ps[c]).A },
		}
	}},
}

// crashProgram is what every row runs, up to its crash; a shape without
// CAS skips the CAS steps. Run to the end, cell 0 holds 0 over a flushed 1,
// cell 1 an unflushed 1, and cell 2 (with CAS) an unflushed 0 over a
// flushed 1.
var crashProgram = []struct {
	kind      OpKind
	c, old, v int
	ok        bool // a CAS's answer
}{
	{kind: KindStore, c: 0, v: 1},
	{kind: KindFlush, c: 0},
	{kind: KindStore, c: 0, v: 0},
	{kind: KindStore, c: 1, v: 1},
	{kind: KindCAS, c: 2, old: 0, v: 1, ok: true},
	{kind: KindCAS, c: 1, old: 0, v: 1, ok: false},
	{kind: KindFlush, c: 2},
	{kind: KindCAS, c: 2, old: 1, v: 0, ok: true},
}

// TestCrashPerModel: every shape of cell follows its Space's model through
// a crash, whether Space.Crash or a plan injects it, before every step of
// crashProgram and after its last. The private-cache model and the
// flush-after-write transformation keep every completed store and CAS; raw
// reverts each cell, on its own, to its last flushed value — a store the
// transformation had not flushed yet is lost too. Only a shared-cache flush
// is a step and a statistic.
func TestCrashPerModel(t *testing.T) {
	for _, shape := range crashShapes {
		t.Run(shape.name, func(t *testing.T) {
			for _, m := range allModels {
				t.Run(m.String(), func(t *testing.T) {
					for _, inject := range []string{"space", "plan"} {
						t.Run(inject, func(t *testing.T) {
							for k := 1; crashAt(t, shape.build, m, inject, k); k++ {
							}
						})
					}
				})
			}
		})
	}
}

// crashAt runs one crash before step k and checks the cells, reporting
// whether step k was one of the program's or the load after it.
func crashAt(t *testing.T, build func(*Space) crashCells, m Model, inject string, k int) bool {
	sp := NewSpaceModel(m)
	cells := build(sp)
	var plan CrashPlan = CrashAtStep(uint64(k))
	if inject == "space" {
		// A second crash before anyone runs again changes nothing.
		plan = &StepHook{Step: uint64(k), Fn: func() { sp.Crash(); sp.Crash() }}
	}
	// The reference: each cell's value and last flushed value after the
	// steps before k, and the flushes among them.
	var cur, per [3]int
	step, flushes := 0, uint64(0)
	ref := func(kind OpKind, c, v int) {
		if step++; step >= k {
			return
		}
		cur[c] = v
		if kind == KindFlush {
			per[c], flushes = v, flushes+1
		}
	}
	ctx := sp.AcquireCtx(0, plan)
	crashed := func() (crashed bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(Crashed); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		for _, op := range crashProgram {
			switch {
			case op.kind == KindFlush:
				if m != ModelPrivateCache {
					ref(KindFlush, op.c, cur[op.c])
				}
				cells.flush(ctx, op.c)
				continue
			case op.kind == KindStore:
				ref(KindStore, op.c, op.v)
				cells.store(ctx, op.c, op.v)
			case cells.cas == nil:
				continue
			default:
				v := cur[op.c]
				if op.ok {
					v = op.v
				}
				ref(KindCAS, op.c, v)
				if got := cells.cas(ctx, op.c, op.old, op.v); got != op.ok {
					t.Fatalf("step %d: CAS(%d, %d) on cell %d = %v", step, op.old, op.v, op.c, got)
				}
			}
			if m == ModelSharedCacheAuto {
				ref(KindFlush, op.c, cur[op.c])
			}
		}
		ref(KindLoad, 0, cur[0])
		cells.load(ctx, 0)
		return false
	}()
	sp.ReleaseCtx(ctx)
	if !crashed {
		return false
	}
	if got := sp.Stats().Flushes(); got != flushes {
		t.Errorf("crash before step %d: %d flushes, want %d", k, got, flushes)
	}
	want := cur
	if m != ModelPrivateCache {
		want = per
	}
	ctx = sp.AcquireCtx(0, nil)
	for c, w := range want {
		// A primitive applies a plan crash's revert, and so does Peek: an
		// odd k loads a cell first, an even k peeks first.
		var peeked, loaded int
		if k%2 == 1 {
			loaded, peeked = cells.load(ctx, c), cells.peek(c)
		} else {
			peeked, loaded = cells.peek(c), cells.load(ctx, c)
		}
		if peeked != w || loaded != w {
			t.Errorf("crash before step %d: cell %d peeks %d and loads %d, want %d", k, c, peeked, loaded, w)
		}
		// A flush in the new epoch persists what survived, not what was
		// lost; a store replaces it unless raw loses it too.
		cells.flush(ctx, c)
		cells.store(ctx, c, 1-w)
		if keeps(m) {
			want[c] = 1 - w
		}
	}
	sp.Crash()
	for c, w := range want {
		if got := cells.peek(c); got != w {
			t.Errorf("crash before step %d, then a flush and a store: cell %d peeks %d, want %d", k, c, got, w)
		}
	}
	return true
}

func TestSpaceCellCount(t *testing.T) {
	sp := NewSpace()
	NewCell(sp, 0)
	NewCell(sp, "x")
	NewWords(sp, 1, false)
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
	if got := slab.base; got != 2 {
		t.Fatalf("slab bit 0 is cell %d, want 2", got)
	}
	if next := NewBits(sp, 1).base; next != 10 {
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
