package nvm

import (
	"testing"
	"unsafe"
)

// A word lives in its cell: a cell of a packable kind is one object, a cell
// of any other kind two (the cell and the box of its value), and an array
// of n words two whatever n (the cells and one box they all start on; one
// for a packable kind — Words carries the array out by value, not in a
// slice of one interface per word). A Cell is 32 bytes whatever T: packed
// bits, live box, displaced box, identity — and no lock. The cell NewWords
// gives a packable kind under the private-cache model is 16: bits and
// identity.
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
	if size := unsafe.Sizeof(packedCell[int64]{}); size != 16 {
		t.Errorf("a packed cell is %d B, want 16", size)
	}
	if _, ok := NewWords(sp, 1, int64(7)).At(0).(*packedCell[int64]); !ok {
		t.Error("NewWords of a packable kind under the private-cache model does not hand out packed cells")
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
			ws.At(1).Init("restored")
			ctx := sp.Ctx(0, nil)
			ws.At(2).Store(ctx, "stored")
			for i, want := range []string{"init", "restored", "stored"} {
				if got := ws.At(i).Load(ctx); got != want {
					t.Errorf("word %d = %q, want %q", i, got, want)
				}
			}
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
				if got := ws.At(i).Peek(); got != want[i] {
					t.Errorf("word %d = %q after crash, want %q", i, got, want[i])
				}
			}
		})
	}
}
