package linearize

import (
	"math"
	"math/rand"
	"testing"

	"detectable/internal/history"
	"detectable/internal/spec"
)

func mandatoryOp(pid int, op spec.Operation, resp, inv, ret int) OpRecord {
	return OpRecord{PID: pid, Op: op, Resp: resp, HasResp: true, Inv: inv, Ret: ret}
}

func TestSequentialHistoryLinearizable(t *testing.T) {
	reg := spec.Register{}
	recs := []OpRecord{
		mandatoryOp(0, spec.NewOp(spec.MethodWrite, 1), spec.Ack, 0, 1),
		mandatoryOp(1, spec.NewOp(spec.MethodRead), 1, 2, 3),
		mandatoryOp(0, spec.NewOp(spec.MethodWrite, 2), spec.Ack, 4, 5),
		mandatoryOp(1, spec.NewOp(spec.MethodRead), 2, 6, 7),
	}
	if !Check(reg, recs) {
		t.Fatal("legal sequential history rejected")
	}
}

func TestStaleReadRejected(t *testing.T) {
	reg := spec.Register{}
	recs := []OpRecord{
		mandatoryOp(0, spec.NewOp(spec.MethodWrite, 1), spec.Ack, 0, 1),
		mandatoryOp(1, spec.NewOp(spec.MethodRead), 0, 2, 3), // reads 0 after write(1) completed
	}
	if Check(reg, recs) {
		t.Fatal("stale read accepted")
	}
}

func TestOverlappingWritesEitherOrder(t *testing.T) {
	reg := spec.Register{}
	for _, readVal := range []int{1, 2} {
		recs := []OpRecord{
			mandatoryOp(0, spec.NewOp(spec.MethodWrite, 1), spec.Ack, 0, 3),
			mandatoryOp(1, spec.NewOp(spec.MethodWrite, 2), spec.Ack, 1, 2),
			mandatoryOp(2, spec.NewOp(spec.MethodRead), readVal, 4, 5),
		}
		if !Check(reg, recs) {
			t.Fatalf("overlapping writes: read=%d rejected, but both orders are legal", readVal)
		}
	}
	recs := []OpRecord{
		mandatoryOp(0, spec.NewOp(spec.MethodWrite, 1), spec.Ack, 0, 3),
		mandatoryOp(1, spec.NewOp(spec.MethodWrite, 2), spec.Ack, 1, 2),
		mandatoryOp(2, spec.NewOp(spec.MethodRead), 7, 4, 5),
	}
	if Check(reg, recs) {
		t.Fatal("read of never-written value accepted")
	}
}

// TestOrderedWrites: two writes of one request, w1 ordered before w2, both
// overlapping two reads. Reads of 1 then 2 are linearizable; 2 then 1 is
// only without the order. A pending w1 may be left out, but not placed
// after w2.
func TestOrderedWrites(t *testing.T) {
	reg := spec.Register{}
	history := func(first, second int, pending bool) []OpRecord {
		w1 := mandatoryOp(0, spec.NewOp(spec.MethodWrite, 1), spec.Ack, 0, 9)
		if pending {
			w1 = OpRecord{PID: 0, Op: w1.Op, Inv: 0, Ret: math.MaxInt, Optional: true}
		}
		w2 := mandatoryOp(1, spec.NewOp(spec.MethodWrite, 2), spec.Ack, 1, 8)
		w2.After = 1 << 0
		return []OpRecord{w1, w2,
			mandatoryOp(2, spec.NewOp(spec.MethodRead), first, 2, 3),
			mandatoryOp(2, spec.NewOp(spec.MethodRead), second, 4, 5),
		}
	}
	for _, pending := range []bool{false, true} {
		if !Check(reg, history(1, 2, pending)) {
			t.Errorf("pending=%v: reads of 1 then 2 rejected", pending)
		}
		recs := history(2, 1, pending)
		if Check(reg, recs) {
			t.Errorf("pending=%v: reads of 2 then 1 accepted against the order", pending)
		}
		if recs[1].After = 0; !Check(reg, recs) {
			t.Errorf("pending=%v: reads of 2 then 1 rejected without the order", pending)
		}
	}
}

func TestCASAtMostOneWinner(t *testing.T) {
	cas := spec.CAS{}
	// Two overlapping cas(0,1); both returning True is impossible.
	recs := []OpRecord{
		mandatoryOp(0, spec.NewOp(spec.MethodCAS, 0, 1), spec.True, 0, 2),
		mandatoryOp(1, spec.NewOp(spec.MethodCAS, 0, 1), spec.True, 1, 3),
	}
	if Check(cas, recs) {
		t.Fatal("two winning cas(0,1) accepted")
	}
	recs[1].Resp = spec.False
	if !Check(cas, recs) {
		t.Fatal("one winner + one loser rejected")
	}
}

func TestPendingOpOptional(t *testing.T) {
	reg := spec.Register{}
	// write(5) pending forever: a read may see 0 or 5.
	for _, readVal := range []int{0, 5} {
		recs := []OpRecord{
			{PID: 0, Op: spec.NewOp(spec.MethodWrite, 5), Inv: 0, Ret: math.MaxInt, Optional: true},
			mandatoryOp(1, spec.NewOp(spec.MethodRead), readVal, 1, 2),
		}
		if !Check(reg, recs) {
			t.Fatalf("pending write: read=%d rejected", readVal)
		}
	}
	recs := []OpRecord{
		{PID: 0, Op: spec.NewOp(spec.MethodWrite, 5), Inv: 0, Ret: math.MaxInt, Optional: true},
		mandatoryOp(1, spec.NewOp(spec.MethodRead), 3, 1, 2),
	}
	if Check(reg, recs) {
		t.Fatal("read of impossible value accepted despite pending write")
	}
}

func TestRealTimeOrderRespected(t *testing.T) {
	cas := spec.CAS{}
	// cas(0,1)=True completes before cas(1,2)=True begins; a later read must
	// not see 1 if cas(1,2) linearized after... actually read=2 is forced.
	recs := []OpRecord{
		mandatoryOp(0, spec.NewOp(spec.MethodCAS, 0, 1), spec.True, 0, 1),
		mandatoryOp(1, spec.NewOp(spec.MethodCAS, 1, 2), spec.True, 2, 3),
		mandatoryOp(2, spec.NewOp(spec.MethodRead), 1, 4, 5),
	}
	if Check(cas, recs) {
		t.Fatal("read=1 accepted after cas(1,2) completed")
	}
	recs[2].Resp = 2
	if !Check(cas, recs) {
		t.Fatal("read=2 rejected")
	}
}

func TestQueueHistory(t *testing.T) {
	q := spec.Queue{}
	recs := []OpRecord{
		mandatoryOp(0, spec.NewOp(spec.MethodEnq, 1), spec.Ack, 0, 1),
		mandatoryOp(1, spec.NewOp(spec.MethodEnq, 2), spec.Ack, 2, 3),
		mandatoryOp(0, spec.NewOp(spec.MethodDeq), 1, 4, 5),
		mandatoryOp(1, spec.NewOp(spec.MethodDeq), 2, 6, 7),
	}
	if !Check(q, recs) {
		t.Fatal("FIFO history rejected")
	}
	recs[2].Resp, recs[3].Resp = 2, 1 // LIFO order with sequential enqueues
	if Check(q, recs) {
		t.Fatal("non-FIFO dequeue order accepted")
	}
}

func TestCollectPairsEvents(t *testing.T) {
	var log history.Log
	log.Invoke(0, spec.NewOp(spec.MethodWrite, 1))
	log.Return(0, spec.Ack)
	log.Invoke(1, spec.NewOp(spec.MethodWrite, 2))
	log.Crash()
	log.RecoverReturn(1, spec.Ack, false)
	log.Invoke(2, spec.NewOp(spec.MethodWrite, 3))
	log.Crash()
	log.RecoverReturn(2, 0, true) // fail: excluded
	log.Invoke(3, spec.NewOp(spec.MethodRead))

	recs, rep, err := Collect(log.Events())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 || rep.Recovered != 1 || rep.Failed != 1 || rep.Pending != 1 || rep.Crashes != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3 (failed op excluded)", len(recs))
	}
	if !recs[1].Crashed {
		t.Fatal("recovered op not marked Crashed")
	}
	if !recs[2].Optional {
		t.Fatal("pending op not marked Optional")
	}
}

func TestCollectRejectsMalformed(t *testing.T) {
	var log history.Log
	log.Return(0, 1)
	if _, _, err := Collect(log.Events()); err == nil {
		t.Fatal("return without invoke accepted")
	}

	var log2 history.Log
	log2.Invoke(0, spec.NewOp(spec.MethodRead))
	log2.Invoke(0, spec.NewOp(spec.MethodRead))
	if _, _, err := Collect(log2.Events()); err == nil {
		t.Fatal("nested invocations by one process accepted")
	}
}

func TestFailedOpMustHaveNoEffect(t *testing.T) {
	reg := spec.Register{}
	var log history.Log
	log.Invoke(0, spec.NewOp(spec.MethodWrite, 9))
	log.Crash()
	log.RecoverReturn(0, 0, true) // claims NOT linearized
	log.Invoke(1, spec.NewOp(spec.MethodRead))
	log.Return(1, 9) // ... but the write is visible

	ok, _, err := CheckLog(reg, &log)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("history with visible-but-failed write accepted")
	}
}

func TestRecoveredOpMustBeLinearized(t *testing.T) {
	reg := spec.Register{}
	var log history.Log
	log.Invoke(0, spec.NewOp(spec.MethodWrite, 9))
	log.Crash()
	log.RecoverReturn(0, spec.Ack, false) // claims linearized
	log.Invoke(1, spec.NewOp(spec.MethodRead))
	log.Return(1, 9)

	ok, _, err := CheckLog(reg, &log)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("recovered write + consistent read rejected")
	}
}

func TestExplainReturnsWitness(t *testing.T) {
	reg := spec.Register{}
	recs := []OpRecord{
		mandatoryOp(0, spec.NewOp(spec.MethodWrite, 1), spec.Ack, 0, 3),
		mandatoryOp(1, spec.NewOp(spec.MethodRead), 0, 1, 2),
	}
	ok, witness := Explain(reg, recs)
	if !ok {
		t.Fatal("rejected")
	}
	if len(witness) != 2 || witness[0].Op.Method != spec.MethodRead {
		t.Fatalf("witness = %v, want read before write", witness)
	}
}

// TestRandomSequentialAlwaysLinearizable generates random sequential
// histories whose responses come from the spec itself; these must always be
// accepted, for every object.
func TestRandomSequentialAlwaysLinearizable(t *testing.T) {
	objs := []spec.Object{
		spec.Register{}, spec.CAS{}, spec.Counter{}, spec.FAA{},
		spec.Queue{}, spec.MaxRegister{},
	}
	rng := rand.New(rand.NewSource(42))
	for _, obj := range objs {
		ops := obj.Ops(3)
		for trial := 0; trial < 50; trial++ {
			st := obj.Init()
			var recs []OpRecord
			n := 1 + rng.Intn(10)
			for i := 0; i < n; i++ {
				op := ops[rng.Intn(len(ops))]
				var resp int
				st, resp = obj.Apply(st, op)
				recs = append(recs, mandatoryOp(i%3, op, resp, 2*i, 2*i+1))
			}
			if !Check(obj, recs) {
				t.Fatalf("%s: legal sequential history rejected: %v", obj.Name(), recs)
			}
		}
	}
}

// TestRandomShuffledResponses perturbs one response in a sequential history
// and expects most perturbations of a deterministic counter to be rejected.
func TestCounterWrongReadRejected(t *testing.T) {
	c := spec.Counter{}
	recs := []OpRecord{
		mandatoryOp(0, spec.NewOp(spec.MethodInc), spec.Ack, 0, 1),
		mandatoryOp(1, spec.NewOp(spec.MethodInc), spec.Ack, 2, 3),
		mandatoryOp(2, spec.NewOp(spec.MethodRead), 1, 4, 5), // must be 2
	}
	if Check(c, recs) {
		t.Fatal("read=1 after two sequential incs accepted")
	}
	recs[2].Resp = 2
	if !Check(c, recs) {
		t.Fatal("read=2 rejected")
	}
}

func TestTooManyOpsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized history")
		}
	}()
	recs := make([]OpRecord, 64)
	for i := range recs {
		recs[i] = mandatoryOp(i, spec.NewOp(spec.MethodRead), 0, 2*i, 2*i+1)
	}
	Check(spec.Register{}, recs)
}
