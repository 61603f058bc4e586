package main

import (
	"bytes"
	"strings"
	"testing"

	"detectable/internal/runtime"
)

// TestViolationPrintout: a conviction made through a key's check is
// explained, not only counted — key, value, verdict, crash count and the
// key's last 8 operations, oldest first. The verdicts themselves are
// linearize's TestSweepVerdicts.
func TestViolationPrintout(t *testing.T) {
	names := keyNames(2)
	var buf bytes.Buffer
	log := newViolationLog(names)
	log.w = &buf
	op := func(k int, r opRecord) {
		log.settle(log.begin(k, r.op != "GET", r.val), r)
	}

	// A DEL that the server executed but answered "failed" — the
	// re-execution hole of docs/DURABILITY.md — is convicted by the final
	// sweep reading 0: the check still wants the last PUT's value.
	for i := 1; i <= 9; i++ {
		op(1, opRecord{worker: 3, op: "PUT", val: 100 + i, out: runtime.Outcome[int]{Status: runtime.StatusOK}})
	}
	op(1, opRecord{worker: 3, op: "DEL", out: runtime.Outcome[int]{Status: runtime.StatusFailed, Crashes: 2}})
	if err := finalSweep(log, func(string) (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if log.Load() != 1 {
		t.Fatalf("violations = %d, want 1\n%s", log.Load(), buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"violation: key-1: final sweep GET → ok 0 (crashes 0): want 109",
		"last 8 of 11 operations on key-1, oldest first",
		"    w3 PUT 104 → ok (crashes 0)\n", // the 8 most recent start at the fourth put
		"w3 DEL → failed (crashes 2)\n    final sweep GET → ok 0 (crashes 0)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printout lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "PUT 103") {
		t.Errorf("printout holds more than the last 8 operations:\n%s", out)
	}

	// A recovered read, a failed write's verdict and a replica's stale
	// read are explained the same way.
	buf.Reset()
	op(0, opRecord{worker: 2, op: "GET", out: runtime.Outcome[int]{Status: runtime.StatusRecovered, Resp: 555, Crashes: 1}})
	p := log.begin(0, true, 7)
	op(0, opRecord{worker: 1, op: "GET", out: runtime.Outcome[int]{Status: runtime.StatusOK, Resp: 7}})
	log.settle(p, opRecord{worker: 3, op: "PUT", val: 7, out: runtime.Outcome[int]{Status: runtime.StatusFailed, Crashes: 1}})
	log.stale(0, 8, 1, true)
	out = buf.String()
	for _, want := range []string{
		"key-0: w2 GET → recovered 555 (crashes 1): want 0\n",
		"key-0: w3 PUT 7 → failed (crashes 1): its verdict says not linearized, but a read already observed its effect\n",
		"key-0: GET by reader 1 (on a replica: true) got 8: no write of this key carried it\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printout lacks %q:\n%s", want, out)
		}
	}
	if log.Load() != 4 || log.indefinite.Load() != 0 {
		t.Fatalf("violations = %d (want 4), indefinite = %d (want 0)", log.Load(), log.indefinite.Load())
	}
}
