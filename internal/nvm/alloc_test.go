package nvm

import (
	"runtime"
	"testing"
	"unsafe"
)

// A word lives in its cell: a cell of a packable kind is one object, a cell
// of any other kind two (the cell and the box of its value), and an array
// of n words two whatever n (the cells and one box they all start on; one
// for a packable kind — Words carries the array out by value, not in a
// slice of one interface per word). A Cell is 32 bytes whatever T: packed
// bits, live box, displaced box, identity — and no lock. Under the
// private-cache model NewWords stores a packable kind as its bits alone: 64
// words are one 512-byte array of atomic.Int64, pointer-free, each word's
// identity its index.
func TestAllocPinCellObjects(t *testing.T) {
	type triple struct {
		Val int
		Q   int32
		B   int8
	}
	sp := NewSpace()
	for _, c := range []struct {
		name  string
		want  float64
		build func()
	}{
		{"NewCell[int]", 1, func() { NewCell(sp, 7) }},
		{"NewCell[struct]", 2, func() { NewCell(sp, triple{Val: 7}) }},
		{"NewWord[int]", 1, func() { NewWord(sp, 7) }},
		{"NewWords[struct](64)", 2, func() { NewWords(sp, 64, triple{Val: 7}) }},
		{"NewWords[int](64)", 1, func() { NewWords(sp, 64, 7) }},
	} {
		if got := testing.AllocsPerRun(100, c.build); got != c.want {
			t.Errorf("%s allocates %v objects, want %v", c.name, got, c.want)
		}
	}
	if size := unsafe.Sizeof(Cell[triple]{}); size > 32 {
		t.Errorf("a Cell of a three-field struct is %d B, want ≤ 32", size)
	}
	ws := NewWords(sp, 64, int64(0))
	if ws.packed == nil || ws.boxed != nil || ws.cache != nil {
		t.Fatal("NewWords of a packable kind under the private-cache model is not stored as bare bits")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const arrays = 100
	for range arrays {
		NewWords(sp, 64, int64(0))
	}
	runtime.ReadMemStats(&after)
	if objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; objects != arrays || bytes != 512*arrays {
		t.Errorf("%d arrays of 64 packed words allocate %d objects and %d B, want %d and %d", arrays, objects, bytes, arrays, 512*arrays)
	}
}

// TestWordsAreCells: word i of a NewWords array is cell base+i — the
// identity a crash plan sees (ctx.CellID) for every Load, Store and CAS on
// it, under every model and for a packed and a boxed kind alike. The
// schedule explorer's commute relation reads these identities: two
// processes' primitives on different words commute.
func TestWordsAreCells(t *testing.T) {
	for _, m := range allModels {
		t.Run(m.String(), func(t *testing.T) {
			sp := NewSpaceModel(m)
			NewWord(sp, 0) // the arrays do not start at cell 1
			base := sp.CellCount() + 1
			ints := NewWords(sp, 5, int64(0))
			strs := NewWords(sp, 5, "")
			var seen []int
			ctx := sp.AcquireCtx(0, planFunc(func(ctx *Ctx, _ OpKind) bool { seen = append(seen, ctx.CellID()); return false }))
			for i := 0; i < 5; i++ {
				for w, prims := range map[int]func(){
					base + i: func() {
						ints.Load(ctx, i)
						ints.Store(ctx, i, int64(i+1))
						ints.CompareAndSwap(ctx, i, int64(i+1), int64(i+2))
					},
					base + 5 + i: func() {
						strs.Load(ctx, i)
						strs.Store(ctx, i, "a")
						strs.CompareAndSwap(ctx, i, "a", "b")
					},
				} {
					seen = seen[:0]
					prims()
					want := 3
					if m == ModelSharedCacheAuto {
						want = 5 // a flush follows the store and the CAS
					}
					if len(seen) != want {
						t.Fatalf("cell %d: %d primitives seen, want %d", w, len(seen), want)
					}
					for k, id := range seen {
						if id != w {
							t.Fatalf("cell %d: primitive %d reported CellID %d", w, k, id)
						}
					}
				}
				if ints.Peek(i) != int64(i+2) || strs.Peek(i) != "b" {
					t.Fatalf("word %d holds %d and %q, want %d and \"b\"", i, ints.Peek(i), strs.Peek(i), i+2)
				}
			}
		})
	}
}

// TestWordsShareOneBox: the words of one array start on the same immutable
// box and part from it at their first store or Init, one by one.
func TestWordsShareOneBox(t *testing.T) {
	for _, m := range allModels {
		t.Run(m.String(), func(t *testing.T) {
			sp := NewSpaceModel(m)
			ws := NewWords(sp, 3, "init")
			if got := sp.CellCount(); got != 3 {
				t.Fatalf("CellCount = %d, want 3", got)
			}
			ws.Init(1, "restored")
			ctx := sp.AcquireCtx(0, nil)
			ws.Store(ctx, 2, "stored")
			for i, want := range []string{"init", "restored", "stored"} {
				if got := ws.Load(ctx, i); got != want {
					t.Errorf("word %d = %q, want %q", i, got, want)
				}
			}
			sp.ReleaseCtx(ctx)
			if st := sp.Stats(); st.Stores() != 1 {
				t.Errorf("Init counted as a primitive: %d stores, want 1", st.Stores())
			}
			// Init is the initial value: persisted, so a crash keeps it
			// under every model; the raw model loses the unflushed store.
			sp.Crash()
			want := []string{"init", "restored", "stored"}
			if !keeps(m) {
				want[2] = "init"
			}
			for i := range want {
				if got := ws.Peek(i); got != want[i] {
					t.Errorf("word %d = %q after crash, want %q", i, got, want[i])
				}
			}
		})
	}
}
