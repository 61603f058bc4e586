package durable

import "iter"

// Window is one session's outcome window — request ID → the encoded reply
// released for it, the paper's Ann_p lifted to the session layer — and its
// high-water mark, the highest ID ever noted. The server's sessions and the
// DB's mirror of them are both Windows, so the rules are stated once:
//   - ID id lives in slot id mod n: lookup and note are O(1), and a warm
//     window allocates nothing, since a slot's reply buffer is reused;
//   - a lookup hits only when the slot holds that ID and max − id < n, a
//     distance, so an ID near 2^64 cannot wrap past the bound;
//   - Note raises the mark first and drops an ID n or more below it, so it
//     never overwrites the in-window ID that shares its slot;
//   - noting a held ID replaces its reply: outcome records are last-wins.
//
// So nothing displaces the mark's own outcome, and a compaction, which
// writes the window and not the mark, loses nothing.
type Window struct {
	slots []slot
	max   uint64
}

// slot is one ID's place in a Window. recovered marks a reply loaded from
// the durable DB rather than recorded live.
type slot struct {
	id              uint64
	reply           []byte
	held, recovered bool
}

// NewWindow returns an empty window of n ≥ 1 slots.
func NewWindow(n int) *Window { return &Window{slots: make([]slot, n)} }

// Max returns the high-water mark, 0 before the first note.
func (w *Window) Max() uint64 { return w.max }

// Lookup returns the reply held for id, aliasing its slot, and whether it
// was recovered.
func (w *Window) Lookup(id uint64) (reply []byte, recovered, ok bool) {
	s := &w.slots[id%uint64(len(w.slots))]
	if !s.held || s.id != id || w.max-id >= uint64(len(w.slots)) {
		return nil, false, false
	}
	return s.reply, s.recovered, true
}

// Note records a copy of reply under id with its recovered bit.
func (w *Window) Note(id uint64, reply []byte, recovered bool) {
	n := uint64(len(w.slots))
	if w.max = max(w.max, id); w.max-id >= n {
		return
	}
	s := &w.slots[id%n]
	s.id, s.held, s.recovered = id, true, recovered
	s.reply = append(s.reply[:0], reply...)
}

// All yields the held outcomes in request order, the replies aliasing
// their slots.
func (w *Window) All() iter.Seq2[uint64, []byte] {
	return func(yield func(uint64, []byte) bool) {
		for d := uint64(len(w.slots)); d > 0; d-- {
			id := w.max - (d - 1) // below 0 it wraps to an ID no slot holds
			if reply, _, ok := w.Lookup(id); ok && !yield(id, reply) {
				return
			}
		}
	}
}
