package spec

import (
	"testing"
	"testing/quick"
)

func TestRegister(t *testing.T) {
	r := Register{InitVal: 5}
	st := r.Init()
	st, resp := r.Apply(st, NewOp(MethodRead))
	if resp != 5 {
		t.Fatalf("read initial = %d, want 5", resp)
	}
	st, resp = r.Apply(st, NewOp(MethodWrite, 9))
	if resp != Ack {
		t.Fatalf("write resp = %d, want Ack", resp)
	}
	_, resp = r.Apply(st, NewOp(MethodRead))
	if resp != 9 {
		t.Fatalf("read after write = %d, want 9", resp)
	}
}

func TestCAS(t *testing.T) {
	c := CAS{}
	st := c.Init()
	st, resp := c.Apply(st, NewOp(MethodCAS, 0, 3))
	if resp != True {
		t.Fatal("cas(0,3) on 0 returned False")
	}
	st2, resp := c.Apply(st, NewOp(MethodCAS, 0, 7))
	if resp != False {
		t.Fatal("cas(0,7) on 3 returned True")
	}
	if st2 != st {
		t.Fatalf("failed cas changed state %q -> %q", st, st2)
	}
	_, resp = c.Apply(st, NewOp(MethodRead))
	if resp != 3 {
		t.Fatalf("read = %d, want 3", resp)
	}
}

func TestCounterUnbounded(t *testing.T) {
	c := Counter{}
	st := c.Init()
	for i := 0; i < 5; i++ {
		st, _ = c.Apply(st, NewOp(MethodInc))
	}
	_, resp := c.Apply(st, NewOp(MethodRead))
	if resp != 5 {
		t.Fatalf("read = %d, want 5", resp)
	}
}

func TestCounterBounded(t *testing.T) {
	c := Counter{Bound: 2}
	st := c.Init()
	for i := 0; i < 5; i++ {
		st, _ = c.Apply(st, NewOp(MethodInc))
	}
	_, resp := c.Apply(st, NewOp(MethodRead))
	if resp != 2 {
		t.Fatalf("bounded read = %d, want cap 2", resp)
	}
}

func TestFAA(t *testing.T) {
	f := FAA{}
	st := f.Init()
	st, resp := f.Apply(st, NewOp(MethodFAA, 1))
	if resp != 0 {
		t.Fatalf("first faa = %d, want 0 (previous value)", resp)
	}
	_, resp = f.Apply(st, NewOp(MethodFAA, 1))
	if resp != 1 {
		t.Fatalf("second faa = %d, want 1", resp)
	}
}

func TestQueueFIFO(t *testing.T) {
	q := Queue{}
	st := q.Init()
	st, _ = q.Apply(st, NewOp(MethodEnq, 1))
	st, _ = q.Apply(st, NewOp(MethodEnq, 2))
	st, _ = q.Apply(st, NewOp(MethodEnq, 3))
	want := []int{1, 2, 3, Empty}
	for i, w := range want {
		var resp int
		st, resp = q.Apply(st, NewOp(MethodDeq))
		if resp != w {
			t.Fatalf("deq #%d = %d, want %d", i, resp, w)
		}
	}
}

func TestQueueDeqEmptyKeepsState(t *testing.T) {
	q := Queue{}
	st, resp := q.Apply(q.Init(), NewOp(MethodDeq))
	if resp != Empty || st != "" {
		t.Fatalf("deq on empty = (%q, %d), want (\"\", Empty)", st, resp)
	}
}

func TestMaxRegister(t *testing.T) {
	m := MaxRegister{}
	st := m.Init()
	st, _ = m.Apply(st, NewOp(MethodWriteMax, 4))
	st, _ = m.Apply(st, NewOp(MethodWriteMax, 2))
	_, resp := m.Apply(st, NewOp(MethodRead))
	if resp != 4 {
		t.Fatalf("read = %d, want 4 (monotone)", resp)
	}
}

// TestMaxRegisterMonotone checks by property that the max register's value
// never decreases under any operation sequence.
func TestMaxRegisterMonotone(t *testing.T) {
	m := MaxRegister{}
	f := func(writes []uint8) bool {
		st := m.Init()
		prev := 0
		for _, w := range writes {
			st, _ = m.Apply(st, NewOp(MethodWriteMax, int(w%16)))
			_, cur := m.Apply(st, NewOp(MethodRead))
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQueueEnqDeqRoundTrip checks by property that enqueuing a sequence and
// dequeuing it returns the sequence in order.
func TestQueueEnqDeqRoundTrip(t *testing.T) {
	q := Queue{}
	f := func(vals []uint8) bool {
		st := q.Init()
		for _, v := range vals {
			st, _ = q.Apply(st, NewOp(MethodEnq, int(v)+1))
		}
		for _, v := range vals {
			var resp int
			st, resp = q.Apply(st, NewOp(MethodDeq))
			if resp != int(v)+1 {
				return false
			}
		}
		_, resp := q.Apply(st, NewOp(MethodDeq))
		return resp == Empty
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpsGenerators(t *testing.T) {
	cases := []struct {
		obj    Object
		domain int
		want   int
	}{
		{Register{}, 3, 4},    // read + 3 writes
		{CAS{}, 2, 5},         // read + 4 cas combos
		{Counter{}, 5, 2},     // read + inc
		{FAA{}, 5, 2},         // read + faa(1)
		{Queue{}, 2, 3},       // deq + 2 enqs
		{MaxRegister{}, 3, 4}, // read + 3 writemaxes
	}
	for _, tc := range cases {
		if got := len(tc.obj.Ops(tc.domain)); got != tc.want {
			t.Errorf("%s.Ops(%d): got %d ops, want %d", tc.obj.Name(), tc.domain, got, tc.want)
		}
	}
}

func TestOperationString(t *testing.T) {
	op := NewOp(MethodCAS, 0, 1)
	if op.String() != "cas(0,1)" {
		t.Fatalf("String = %q", op.String())
	}
	if NewOp(MethodRead).String() != "read()" {
		t.Fatalf("String = %q", NewOp(MethodRead).String())
	}
}

func TestUnsupportedMethodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("register.Apply(enq) did not panic")
		}
	}()
	Register{}.Apply("0", NewOp(MethodEnq, 1))
}
