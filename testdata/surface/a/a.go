// Package a is the surface scan's fixture: every exported method here is
// live but Queue.Len, which shares its name with the live Ring.Len.
package a

import "fmt"

// Queue's Len has no caller and satisfies no interface Queue is used as.
type Queue struct{ n int }

func NewQueue() *Queue { return &Queue{} }

func (q *Queue) Len() int { return q.n }

// Ring's Len is called, and its String satisfies fmt.Stringer.
type Ring struct{ n int }

func (r *Ring) Len() int { return r.n }

func (r *Ring) String() string { return fmt.Sprint("ring of ", r.n) }

// Box's Size is called only through the Sizer that Total takes.
type Box struct{}

func (Box) Size() int { return 1 }

type Sizer interface{ Size() int }

func Total(s Sizer) int { return s.Size() }

// Hits' Count is called only through the constraint of Max.
type Hits int

func (h Hits) Count() int { return int(h) }

type Counter interface{ Count() int }

func Max[T Counter](xs []T) int {
	m := 0
	for _, x := range xs {
		m = max(m, x.Count())
	}
	return m
}

// Stack's Push is called on an instance, Stack[int].
type Stack[T any] struct{ xs []T }

func (s *Stack[T]) Push(x T) { s.xs = append(s.xs, x) }
