package main

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"

	"detectable/internal/runtime"
)

// TestViolationPrintout: a convicted operation is explained, not only
// counted — key, got/want, verdict, crash count and the key's last 8
// operations, oldest first — in both verifier modes.
func TestViolationPrintout(t *testing.T) {
	names := keyNames(2)
	var buf bytes.Buffer
	log := newViolationLog(names)
	log.w = &buf
	var indefinite atomic.Uint64

	// Shared mode: a DEL that the server executed but answered "failed" —
	// the re-execution hole of docs/DURABILITY.md — is convicted by the
	// final sweep reading 0 with no linearized DEL on record.
	tr := newSharedTracker(len(names))
	v := newVerify(3, tr, log, &indefinite)
	for i := 1; i <= 9; i++ {
		v.beginPut(1, 100+i)
		v.settle(1, names[1], "PUT", 100+i, runtime.Outcome[int]{Status: runtime.StatusOK})
	}
	v.beginDel(1)
	v.settle(1, names[1], "DEL", 0, runtime.Outcome[int]{Status: runtime.StatusFailed, Crashes: 2})
	if err := finalSweep(log, tr, nil, func(int, string) (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if log.Load() != 1 {
		t.Fatalf("violations = %d, want 1\n%s", log.Load(), buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"violation: key-1: final sweep read 0: want nonzero: 9 nonzero writes linearized and no DEL did",
		"last 8 of 10 operations on key-1, oldest first",
		"w3 PUT 103 → ok (crashes 0)", // the 8 most recent start at the third put
		"w3 DEL → failed (crashes 2)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printout lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "PUT 102") {
		t.Errorf("printout holds more than the last 8 operations:\n%s", out)
	}

	// A phantom read and an observed-then-failed write are explained too.
	buf.Reset()
	v.get(0, names[0], v.readBegin(0), runtime.Outcome[int]{Status: runtime.StatusRecovered, Resp: 555, Crashes: 1})
	v.beginPut(0, 7)
	v.get(0, names[0], v.readBegin(0), runtime.Outcome[int]{Status: runtime.StatusOK, Resp: 7})
	v.settle(0, names[0], "PUT", 7, runtime.Outcome[int]{Status: runtime.StatusFailed, Crashes: 1})
	out = buf.String()
	for _, want := range []string{
		"key-0: GET by w3 got 555 (verdict recovered, crashes 1): want a registered write's value",
		"key-0: PUT 7 by w3 (verdict failed, crashes 1): its verdict says not linearized, but a read already returned its value",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printout lacks %q:\n%s", want, out)
		}
	}

	// A zero read convicts only if no DEL had begun by the time it returned:
	// one begun after the read's snapshot can still have linearized first.
	fresh := newSharedTracker(len(names))
	fresh.beginPut(0, 8)
	fresh.settlePut(0, 8, true)
	pre := fresh.readBegin(0)
	if why := fresh.checkRead(0, 0, pre); why == "" {
		t.Errorf("a zero read after a settled PUT, with no DEL begun, was not convicted")
	}
	fresh.beginDel(0)
	if why := fresh.checkRead(0, 0, pre); why != "" {
		t.Errorf("a zero read was convicted although a DEL had begun before it returned: %s", why)
	}

	// Uniform mode: the owner's expectation is the want.
	buf.Reset()
	u := newVerify(0, nil, log, &indefinite)
	u.settle(0, names[0], "PUT", 42, runtime.Outcome[int]{Status: runtime.StatusOK})
	u.get(0, names[0], readPre{}, runtime.Outcome[int]{Status: runtime.StatusOK, Resp: 41})
	if want := "key-0: GET by its owner w0 got 41, want 42 (verdict ok, crashes 0)"; !strings.Contains(buf.String(), want) {
		t.Errorf("printout lacks %q:\n%s", want, buf.String())
	}
	if log.Load() != 4 || indefinite.Load() != 0 {
		t.Fatalf("violations = %d (want 4), indefinite = %d (want 0)", log.Load(), indefinite.Load())
	}
}
