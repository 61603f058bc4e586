package nvm

import (
	"reflect"
	"sync/atomic"
	"unsafe"
)

// word is the lock-free storage engine inside Cell and a boxed Words
// array. It holds one value of T and supports atomic load / store /
// compare-and-swap with *value* semantics (CAS compares by ==, exactly like
// the mutex-guarded field it replaces).
//
// It is one struct with two representations, fixed when the word is
// initialized and told apart by p (p == nil ⇔ packed):
//
//   - packed: T is a boolean or fixed-width integer kind and lives in bits.
//     For those kinds bitwise equality coincides with value equality, so
//     the hardware CAS implements value CAS directly, and every primitive
//     is a single atomic instruction with no allocation.
//   - boxed: any other T lives behind p, and CAS is a load/compare/
//     pointer-CAS loop. Published boxes are immutable, so readers never
//     race with writers and any number of words may share one (NewWords
//     starts a whole array on a single box). prev, a one-slot cache of the
//     previously displaced box, makes a value that alternates with the one
//     before it (a CAS object's ⟨value, writer⟩ pair under one writer)
//     allocation-free after warm-up.
//
// The word lives in its cell, not behind it: a cell is one object, plus the
// boxes of a boxed T. The word itself never checks epochs or plans — Cell
// and Words drive the Ctx bookkeeping around it. Algorithm 1's R needs no
// box: internal/rw packs its triple ⟨v, q, b⟩ into one int64, and NewWords
// stores a packable T as its bits alone, one atomic.Int64 per word, its
// identity implied by its index, so only Cell uses the packed
// representation.
type word[T comparable] struct {
	bits    atomic.Int64
	p, prev atomic.Pointer[T]
}

// newBox returns the box a word of T starts on holding init, or nil when T
// packs.
func newBox[T comparable](init T) *T {
	if packable[T]() {
		return nil
	}
	box := new(T) // not &init: an escaping parameter is heap-allocated on the packed path too
	*box = init
	return box
}

// start sets the word's first value: box (from newBox, possibly shared with
// other words) for a boxed T, init's bits otherwise.
func (w *word[T]) start(init T, box *T) {
	if box == nil {
		w.bits.Store(pack(init))
		return
	}
	w.p.Store(box)
}

func (w *word[T]) load() T {
	if p := w.p.Load(); p != nil {
		return *p
	}
	return unpack[T](w.bits.Load())
}

// box returns a pointer holding v, reusing the displaced-value cache when
// it already holds v (pointers are immutable once published, so reuse is
// safe — and value-CAS semantics are pointer-identity-agnostic).
func (w *word[T]) box(v T) *T {
	if pv := w.prev.Load(); pv != nil && *pv == v {
		return pv
	}
	next := new(T)
	*next = v
	return next
}

func (w *word[T]) store(v T) {
	for {
		cur := w.p.Load()
		if cur == nil {
			w.bits.Store(pack(v))
			return
		}
		if *cur == v {
			// Value-identical store: the register's state is unchanged, so
			// installing a new box would be observationally equivalent.
			return
		}
		if w.p.CompareAndSwap(cur, w.box(v)) {
			w.prev.Store(cur)
			return
		}
	}
}

func (w *word[T]) cas(old, new T) bool {
	for {
		cur := w.p.Load()
		if cur == nil {
			return w.bits.CompareAndSwap(pack(old), pack(new))
		}
		if *cur != old {
			return false
		}
		if old == new {
			return true // identity swap: state unchanged
		}
		if w.p.CompareAndSwap(cur, w.box(new)) {
			w.prev.Store(cur)
			return true
		}
		// The pointer moved under us; the value may still equal old
		// (another writer installed a different box), so retry.
	}
}

// packable reports whether values of T can be represented inside an int64
// such that bitwise equality coincides with value equality: boolean and
// fixed-width integer kinds. Strings (compared by content, represented by
// pointer+length), floats (NaN ≠ NaN, -0.0 == 0.0) and composite kinds
// (padding bytes) are excluded and boxed.
func packable[T comparable]() bool {
	switch reflect.TypeFor[T]().Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr:
		return true
	}
	return false
}

// pack stores v in the low bytes of an otherwise-zero int64. Only called
// for types accepted by packable, whose size is at most 8 bytes.
func pack[T comparable](v T) int64 {
	var b int64
	*(*T)(unsafe.Pointer(&b)) = v
	return b
}

// unpack is the inverse of pack.
func unpack[T comparable](b int64) T {
	return *(*T)(unsafe.Pointer(&b))
}
