package server_test

import (
	"testing"

	"detectable/internal/client"
	"detectable/internal/server"
	"detectable/internal/shardkv"
)

// TestValueDomainOverWire: at N = 8 a register holds the values of
// [−2^59, 2^59). Both ends round-trip through a real server; a PUT or MPUT
// of a value past either end is a connection-fatal bad-request refused at
// decode, so a refused MPUT executes none of its entries — not even those
// ahead of the bad one — and the session resumes on the next call.
func TestValueDomainOverWire(t *testing.T) {
	srv, store := startServer(t, 4, 8)
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	lo, hi := -1<<59, 1<<59-1
	for key, v := range map[string]int{"lo": lo, "hi": hi} {
		if out, err := c.Put(key, v); err != nil || !out.Status.Linearized() {
			t.Fatalf("put %s = %d: %v %+v", key, v, err, out)
		}
		if out, err := c.Get(key); err != nil || out.Resp != v {
			t.Fatalf("get %s: %v %+v, want %d", key, err, out, v)
		}
	}

	refused := func(what string, err error) {
		t.Helper()
		if we, ok := err.(*client.WireError); !ok || we.Code != server.ErrBadRequest {
			t.Fatalf("%s: error %v, want bad-request", what, err)
		}
	}
	for _, v := range []int{1 << 59, -1<<59 - 1} {
		_, err := c.Put("lo", v)
		refused("put of an out-of-domain value", err)
		if got := store.Peek("lo"); got != lo {
			t.Fatalf("lo = %d after a refused put of %d", got, v)
		}
	}
	puts := store.TotalStats().Puts
	_, err = c.MultiPut([]shardkv.KV{{Key: "lo", Val: 1}, {Key: "fresh", Val: 2}, {Key: "hi", Val: 1 << 59}, {Key: "lo", Val: 3}})
	refused("mput with one out-of-domain entry", err)
	if store.Peek("lo") != lo || store.Peek("hi") != hi || store.Peek("fresh") != 0 {
		t.Fatalf("a refused mput changed the store: lo=%d hi=%d fresh=%d", store.Peek("lo"), store.Peek("hi"), store.Peek("fresh"))
	}
	if got := store.TotalStats().Puts; got != puts {
		t.Fatalf("a refused mput ran %d puts", got-puts)
	}
	// The refusal dropped the connection, not the session.
	if out, err := c.Get("hi"); err != nil || out.Resp != hi {
		t.Fatalf("get after the refusals: %v %+v, want %d", err, out, hi)
	}
}
