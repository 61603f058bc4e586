package runtime

import (
	"slices"
	"sync"
	"testing"

	"detectable/internal/history"
	"detectable/internal/nvm"
	"detectable/internal/spec"
)

// toyObject is a minimal detectable "store" object used to exercise Execute:
// the body persists a checkpoint, writes the register, then persists the
// response. Recovery uses the checkpoint to decide linearized-or-not.
type toyObject struct {
	sys *System
	reg *nvm.Cell[int]
	ann []*Ann[int]
}

func newToy(sys *System) *toyObject {
	t := &toyObject{sys: sys, reg: nvm.NewCell(sys.Space(), 0)}
	for p := 0; p < sys.N(); p++ {
		t.ann = append(t.ann, NewAnn[int](sys.Space()))
	}
	return t
}

func (t *toyObject) storeOp(pid, v int) Op[int] {
	ann := t.ann[pid]
	return Op[int]{
		Desc:     spec.NewOp(spec.MethodWrite, v),
		Announce: func(ctx *nvm.Ctx) { ann.Announce(ctx, "store") },
		Body: func(ctx *nvm.Ctx) int {
			ann.SetCP(ctx, 1)            // step 1
			t.reg.Store(ctx, v)          // step 2
			ann.SetCP(ctx, 2)            // step 3
			ann.SetResult(ctx, spec.Ack) // step 4
			return spec.Ack
		},
		Recover: func(ctx *nvm.Ctx) (int, bool) {
			if r := ann.Result(ctx); r.Set {
				return r.Val, true
			}
			switch ann.GetCP(ctx) {
			case 0:
				return 0, false
			case 1:
				// May or may not have written; this toy conservatively
				// completes the write (idempotent for a single writer).
				t.reg.Store(ctx, v)
			}
			ann.SetCP(ctx, 2)
			ann.SetResult(ctx, spec.Ack)
			return spec.Ack, true
		},
		Encode: EncodeInt,
	}
}

func TestExecuteOK(t *testing.T) {
	sys := NewSystem(1)
	toy := newToy(sys)
	out := Execute(sys, 0, toy.storeOp(0, 7))
	if out.Status != StatusOK || out.Resp != spec.Ack || out.Crashes != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	if got := toy.reg.Peek(); got != 7 {
		t.Fatalf("reg = %d, want 7", got)
	}
	evs := sys.Log().Events()
	if len(evs) != 2 {
		t.Fatalf("log has %d events, want invoke+return", len(evs))
	}
}

func TestExecuteFailBeforeCheckpoint(t *testing.T) {
	sys := NewSystem(1)
	toy := newToy(sys)
	// The announcement takes 3 primitives; body step 1 is the CP store, so
	// crashing before body step 1 (= overall step 4) yields fail.
	out := Execute(sys, 0, toy.storeOp(0, 7), nvm.CrashAtStep(4))
	if out.Status != StatusFailed {
		t.Fatalf("status = %v, want failed", out.Status)
	}
	if out.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", out.Crashes)
	}
	if got := toy.reg.Peek(); got != 0 {
		t.Fatalf("reg = %d, want 0 (failed op must have no effect)", got)
	}
}

func TestExecuteRecoverAfterWrite(t *testing.T) {
	sys := NewSystem(1)
	toy := newToy(sys)
	// Crash after the register store (announce=3, CP=4, store=5 → crash
	// before step 6, the CP:=2 store).
	out := Execute(sys, 0, toy.storeOp(0, 7), nvm.CrashAtStep(6))
	if out.Status != StatusRecovered || out.Resp != spec.Ack {
		t.Fatalf("outcome = %+v", out)
	}
	if got := toy.reg.Peek(); got != 7 {
		t.Fatalf("reg = %d, want 7", got)
	}
}

func TestExecuteRecoveredResponseFromAnn(t *testing.T) {
	sys := NewSystem(1)
	toy := newToy(sys)
	// Crash after the response persist? The body has 4 primitives
	// (steps 4..7 overall); crash before step 8 never fires during the
	// body, so plan a crash during... instead crash right before the final
	// persist (step 7): recovery must still return ack via the checkpoint.
	out := Execute(sys, 0, toy.storeOp(0, 9), nvm.CrashAtStep(7))
	if out.Status != StatusRecovered || out.Resp != spec.Ack {
		t.Fatalf("outcome = %+v", out)
	}
	// And the response is now persisted for idempotent re-recovery.
	ctx := sys.Space().AcquireCtx(0, nil)
	if r := toy.ann[0].Result(ctx); !r.Set || r.Val != spec.Ack {
		t.Fatalf("persisted result = %+v", r)
	}
}

func TestExecuteMultipleCrashesDuringRecovery(t *testing.T) {
	sys := NewSystem(1)
	toy := newToy(sys)
	out := Execute(sys, 0, toy.storeOp(0, 3),
		nvm.CrashAtStep(5), // crash during body, after CP:=1
		nvm.CrashAtStep(1), // crash during first recovery attempt
		nvm.CrashAtStep(2), // crash during second recovery attempt
	)
	if out.Status != StatusRecovered {
		t.Fatalf("status = %v, want recovered", out.Status)
	}
	if out.Crashes != 3 {
		t.Fatalf("crashes = %d, want 3", out.Crashes)
	}
	if got := toy.reg.Peek(); got != 3 {
		t.Fatalf("reg = %d, want 3", got)
	}
}

func TestExecuteNotInvoked(t *testing.T) {
	sys := NewSystem(1)
	toy := newToy(sys)
	// Announcement is steps 1-3; crash before step 2 hits mid-announcement.
	out := Execute(sys, 0, toy.storeOp(0, 7), nvm.CrashAtStep(2))
	if out.Status != StatusNotInvoked {
		t.Fatalf("status = %v, want not-invoked", out.Status)
	}
	// The only recorded event is the crash itself: no invocation, no
	// recovery verdict.
	evs := sys.Log().Events()
	if len(evs) != 1 || evs[0].Kind != history.KindCrash {
		t.Fatalf("log = %v, want a single crash event", evs)
	}
}

// stepLog is a crash plan that counts the primitives consulting it, attempt
// by attempt (a new attempt starts at step 1), and crashes before the
// listed {attempt, step} points.
type stepLog struct {
	crash    map[[2]int]bool
	attempts []int
}

func (l *stepLog) CrashBefore(ctx *nvm.Ctx, _ nvm.OpKind) bool {
	if ctx.Steps() == 1 {
		l.attempts = append(l.attempts, 0)
	}
	a := len(l.attempts) - 1
	l.attempts[a]++
	return l.crash[[2]int{a, int(ctx.Steps())}]
}

// TestArm pins System.Arm: an armed plan is consulted on the announcement,
// the body and every recovery re-entry, in place of the per-call plans,
// while a pid that is not armed follows its per-call plans.
func TestArm(t *testing.T) {
	sys := NewSystem(2)
	toy := newToy(sys)
	// Crash once in the body, after CP:=1 (step 5), and once at the first
	// step of the first recovery.
	armed := &stepLog{crash: map[[2]int]bool{{0, 5}: true, {1, 1}: true}}
	sys.Arm(0, armed)
	// The per-call plan would fail the operation before its checkpoint;
	// the armed plan replaces it.
	out := Execute(sys, 0, toy.storeOp(0, 3), nvm.CrashAtStep(4))
	if out.Status != StatusRecovered || out.Crashes != 2 {
		t.Fatalf("armed outcome = %+v, want recovered after 2 crashes", out)
	}

	// pid 1 is not armed: the same crashes, planned per call.
	body := &stepLog{crash: map[[2]int]bool{{0, 5}: true}}
	rec1 := &stepLog{crash: map[[2]int]bool{{0, 1}: true}}
	rec2 := &stepLog{}
	out = Execute(sys, 1, toy.storeOp(1, 4), body, rec1, rec2)
	if out.Status != StatusRecovered || out.Crashes != 2 {
		t.Fatalf("per-call outcome = %+v, want recovered after 2 crashes", out)
	}
	if !slices.Equal(body.attempts, []int{5}) || !slices.Equal(rec1.attempts, []int{1}) || len(rec2.attempts) != 1 {
		t.Fatalf("per-call consultations = %v %v %v, want [5] [1] [k]", body.attempts, rec1.attempts, rec2.attempts)
	}
	if want := []int{5, 1, rec2.attempts[0]}; !slices.Equal(armed.attempts, want) {
		t.Fatalf("armed consultations per attempt = %v, want %v", armed.attempts, want)
	}
}

func TestExecuteNRLRetriesUntilLinearized(t *testing.T) {
	sys := NewSystem(1)
	toy := newToy(sys)
	attempt := 0
	resp, invocations := ExecuteNRL(sys, 0, func() Op[int] {
		attempt++
		op := toy.storeOp(0, 5)
		if attempt == 1 {
			// Sabotage the first invocation so it fails before the CP.
			body := op.Body
			op.Body = func(ctx *nvm.Ctx) int {
				sys.Crash()
				return body(ctx)
			}
		}
		return op
	})
	if resp != spec.Ack {
		t.Fatalf("resp = %d", resp)
	}
	if invocations != 2 {
		t.Fatalf("invocations = %d, want 2", invocations)
	}
	if got := toy.reg.Peek(); got != 5 {
		t.Fatalf("reg = %d, want 5", got)
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		StatusOK:         "ok",
		StatusRecovered:  "recovered",
		StatusFailed:     "failed",
		StatusNotInvoked: "not-invoked",
		Status(0):        "unknown",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, got, want)
		}
	}
	if StatusFailed.Linearized() || StatusNotInvoked.Linearized() {
		t.Error("failed/not-invoked reported linearized")
	}
	if !StatusOK.Linearized() || !StatusRecovered.Linearized() {
		t.Error("ok/recovered reported not linearized")
	}
}

func TestAnnAnnounceResets(t *testing.T) {
	sys := NewSystem(1)
	ann := NewAnn[int](sys.Space())
	ctx := sys.Space().AcquireCtx(0, nil)
	ann.SetCP(ctx, 2)
	ann.SetResult(ctx, 42)
	ann.Announce(ctx, "write:1")
	if got := ann.GetCP(ctx); got != 0 {
		t.Fatalf("CP after announce = %d, want 0", got)
	}
	if r := ann.Result(ctx); r.Set {
		t.Fatalf("Resp after announce = %+v, want ⊥", r)
	}
	if got := ann.Op.Load(ctx); got != "write:1" {
		t.Fatalf("Op = %q", got)
	}
}

func TestConcurrentExecutesWithStorm(t *testing.T) {
	const (
		procs = 4
		ops   = 30
	)
	sys := NewSystem(procs)
	toy := newToy(sys)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // crash storm
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%64 == 0 {
				sys.Crash()
			}
		}
	}()

	var workers sync.WaitGroup
	for p := 0; p < procs; p++ {
		workers.Add(1)
		go func(pid int) {
			defer workers.Done()
			for i := 0; i < ops; i++ {
				out := Execute(sys, pid, toy.storeOp(pid, pid*100+i))
				if out.Status == StatusFailed || out.Status == StatusNotInvoked {
					continue // caller chooses not to retry
				}
			}
		}(p)
	}
	workers.Wait()
	close(stop)
	wg.Wait()

	// The toy's single-cell register under concurrent writers does not have
	// a meaningful linearizable spec here; this test asserts only that the
	// machinery survives storms without deadlock or stray panics and the
	// log is well-formed.
	if sys.Log().Len() == 0 {
		t.Fatal("no events recorded")
	}
}
