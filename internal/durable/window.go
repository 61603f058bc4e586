package durable

import (
	"encoding/binary"
	"iter"

	"detectable/internal/runtime"
)

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

// A write's reply, as the wire carries it (docs/PROTOCOL.md) and a window
// holds it: the OK status, then one verdict — status, response, crashes —
// or, for a batch, a u16 count and one verdict per entry. The server encodes
// its replies with these, and noteStamp rebuilds a reply from a stamp with
// them, byte for byte.
const (
	// ReplyOK is a success reply's status byte (server.StatusOK).
	ReplyOK byte = 0x00
	// VerdictSize is one encoded verdict.
	VerdictSize = 13
	// batchReplyHeader is a batch reply's bytes ahead of its verdicts.
	batchReplyHeader = 3
)

// AppendVerdict appends one operation's verdict to dst: its runtime.Status
// as a byte, its response as an i64 and the crash interruptions it observed
// as a u32.
func AppendVerdict(dst []byte, out runtime.Outcome[int]) []byte {
	dst = append(dst, byte(out.Status))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(out.Resp)))
	return binary.BigEndian.AppendUint32(dst, uint32(out.Crashes))
}

// AppendReply appends a single operation's success reply to dst.
func AppendReply(dst []byte, out runtime.Outcome[int]) []byte {
	return AppendVerdict(append(dst, ReplyOK), out)
}

// AppendBatchReply appends a batch's success reply to dst, aligned with the
// request.
func AppendBatchReply(dst []byte, outs []runtime.Outcome[int]) []byte {
	dst = binary.BigEndian.AppendUint16(append(dst, ReplyOK), uint16(len(outs)))
	for _, o := range outs {
		dst = AppendVerdict(dst, o)
	}
	return dst
}
