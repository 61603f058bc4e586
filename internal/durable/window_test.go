package durable

import (
	"bytes"
	"maps"
	"slices"
	"testing"
)

// FuzzWindowAgainstMap drives a Window and a map[uint64][]byte with one
// stream of notes and lookups decoded from the input, and requires them to
// agree after every step. The map applies the rule the window replaced:
// insert, raise the high-water mark, then evict every ID n or more below
// it. The first byte is the window size (1 to 64); then each step is an op
// byte — note live, note recovered or look up, how to pick the ID, and the
// reply's length — and a byte d that places the ID around the moving mark,
// n or more below it, just under 2^64, or at d itself.
func FuzzWindowAgainstMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		n := 1 + uint64(in[0]%64)
		w := NewWindow(int(n))
		ref := map[uint64][]byte{}
		recovered := map[uint64]bool{}
		var mark uint64
		for in = in[1:]; len(in) >= 2; in = in[2:] {
			op, d := in[0], in[1]
			var id uint64
			switch op / 3 % 4 {
			case 0:
				id = mark + uint64(int64(int8(d)))
			case 1:
				id = mark - n - uint64(d)
			case 2:
				id = ^uint64(0) - uint64(d)
			case 3:
				id = uint64(d)
			}
			if kind := op % 3; kind == 2 {
				reply, rec, ok := w.Lookup(id)
				want, present := ref[id]
				if ok != present || !bytes.Equal(reply, want) || rec != recovered[id] {
					t.Fatalf("lookup %d = %q recovered=%v ok=%v, map says %q recovered=%v present=%v",
						id, reply, rec, ok, want, recovered[id], present)
				}
			} else {
				reply := bytes.Repeat([]byte{d}, int(op/12)%5)
				w.Note(id, reply, kind == 1)
				ref[id], recovered[id] = reply, kind == 1
				mark = max(mark, id)
				for k := range ref {
					if mark-k >= n {
						delete(ref, k)
						delete(recovered, k)
					}
				}
			}
			if w.Max() != mark {
				t.Fatalf("mark %d, map says %d", w.Max(), mark)
			}
			var got []uint64
			for id, reply := range w.All() {
				if r, ok := ref[id]; !ok || !bytes.Equal(reply, r) {
					t.Fatalf("walk yields %d=%q, map holds %q (present=%v)", id, reply, r, ok)
				}
				got = append(got, id)
			}
			if want := slices.Sorted(maps.Keys(ref)); !slices.Equal(got, want) {
				t.Fatalf("walk yields IDs %v, map holds %v", got, want)
			}
		}
	})
}
