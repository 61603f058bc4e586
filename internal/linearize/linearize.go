// Package linearize checks recorded concurrent histories for durable
// linearizability (Izraelevitz et al.) with the detectability accounting of
// Friedman et al.:
//
//   - an operation that completed without crashing must be linearized with
//     the response it returned;
//   - a crashed operation whose recovery function returned a response must
//     be linearized with that response (it took effect before or despite
//     the crash), and its linearization point must precede the recovery
//     function's return;
//   - a crashed operation whose recovery function returned fail must NOT be
//     linearized — it is excluded from the witness, and if it nevertheless
//     had a visible effect the remaining operations' responses cannot be
//     explained and the check fails;
//   - an operation still pending when the history ends may be linearized
//     with any response, or not at all.
//
// Check is the classic Wing & Gong / Lowe search with memoization on (set
// of linearized operations, object state), for any spec.Object and at most
// MaxOps operations. Sweep applies the same rules to one register online,
// one event at a time, with no bound on the history's length: it is how
// the load generator checks a storm's every key (linearizability is local,
// so keys are checked apart).
package linearize

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"detectable/internal/history"
	"detectable/internal/spec"
)

// MaxOps is the largest history the linearization search accepts: the
// memoized done-set is a 64-bit mask with one bit reserved. Callers with
// longer histories must segment them.
const MaxOps = 63

// OpRecord is one operation extracted from a history log.
type OpRecord struct {
	// PID is the invoking process.
	PID int
	// Op is the abstract operation.
	Op spec.Operation
	// Resp is the response the operation reported (valid when HasResp).
	Resp int
	// HasResp is false for pending operations, whose response is unknown.
	HasResp bool
	// Inv and Ret are event indices delimiting the operation's interval.
	// Ret is math.MaxInt for pending operations.
	Inv, Ret int
	// Optional marks operations that may be omitted from the linearization
	// (pending operations).
	Optional bool
	// Crashed reports that the operation's interval contains at least one
	// system-wide crash.
	Crashed bool
	// After is the set of records (bit i for recs[i]) this operation
	// follows if both linearize, as a server runs a later write of one
	// request after an earlier one on the same register.
	After uint64
}

// String renders the record for diagnostics.
func (r OpRecord) String() string {
	resp := "?"
	if r.HasResp {
		resp = strconv.Itoa(r.Resp)
	}
	return fmt.Sprintf("p%d %s -> %s [%d,%d]", r.PID, r.Op, resp, r.Inv, r.Ret)
}

// Report summarizes the detectability accounting of a history.
type Report struct {
	// Completed counts operations that finished without crashing.
	Completed int
	// Recovered counts crashed operations whose recovery returned a
	// response (linearized before the crash was resolved).
	Recovered int
	// Failed counts crashed operations whose recovery returned fail.
	Failed int
	// Pending counts operations with no completion event.
	Pending int
	// Crashes counts system-wide crash events.
	Crashes int
}

// Collect pairs invocation events with their completions. Operations whose
// recovery returned fail are excluded from the returned records (they must
// not be linearized); their count is reported. Collect returns an error on
// malformed logs (a completion without an invocation, or two overlapping
// invocations by one process).
func Collect(events []history.Event) ([]OpRecord, Report, error) {
	var (
		recs   []OpRecord
		rep    Report
		open   = map[int]int{} // pid -> index into recs of the open op
		seenCr = map[int]bool{}
	)
	for i, e := range events {
		switch e.Kind {
		case history.KindInvoke:
			if _, ok := open[e.PID]; ok {
				return nil, rep, fmt.Errorf("linearize: p%d invoked %s while an operation is open", e.PID, e.Op)
			}
			recs = append(recs, OpRecord{
				PID: e.PID, Op: e.Op,
				Inv: i, Ret: math.MaxInt,
			})
			open[e.PID] = len(recs) - 1
			seenCr[e.PID] = false
		case history.KindReturn:
			idx, ok := open[e.PID]
			if !ok {
				return nil, rep, fmt.Errorf("linearize: p%d returned with no open operation", e.PID)
			}
			recs[idx].Resp = e.Resp
			recs[idx].HasResp = true
			recs[idx].Ret = i
			recs[idx].Crashed = seenCr[e.PID]
			delete(open, e.PID)
			rep.Completed++
		case history.KindCrash:
			rep.Crashes++
			for pid := range open {
				seenCr[pid] = true
			}
		case history.KindRecoverReturn:
			idx, ok := open[e.PID]
			if !ok {
				return nil, rep, fmt.Errorf("linearize: p%d recovery returned with no open operation", e.PID)
			}
			if e.Fail {
				// Not linearized: mark the record for exclusion.
				recs[idx].Inv = -1
				rep.Failed++
			} else {
				recs[idx].Resp = e.Resp
				recs[idx].HasResp = true
				recs[idx].Ret = i
				recs[idx].Crashed = true
				rep.Recovered++
			}
			delete(open, e.PID)
		}
	}
	// Remaining open operations are pending: optional, any response.
	for _, idx := range open {
		recs[idx].Optional = true
		rep.Pending++
	}
	// Compact away the failed (excluded) records.
	out := recs[:0]
	for _, r := range recs {
		if r.Inv >= 0 {
			out = append(out, r)
		}
	}
	return out, rep, nil
}

// Check reports whether the records admit a legal linearization against
// obj's sequential specification. See the package comment for the rules.
// Check panics if given more than 63 records; callers should segment long
// histories.
func Check(obj spec.Object, recs []OpRecord) bool {
	ok, _ := Explain(obj, recs)
	return ok
}

// Explain is Check plus a witness: when the records are linearizable it
// returns the operations in linearization order.
func Explain(obj spec.Object, recs []OpRecord) (bool, []OpRecord) {
	if len(recs) > MaxOps {
		panic(fmt.Sprintf("linearize: %d operations exceed the %d-op search limit; segment the history", len(recs), MaxOps))
	}
	s := &searcher{obj: obj, recs: recs, succ: make([]uint64, len(recs)), memo: map[string]bool{}}
	for i, r := range recs {
		if !r.Optional {
			s.mandatory |= 1 << uint(i)
		}
		for ws := r.After; ws != 0; ws &= ws - 1 {
			s.succ[bits.TrailingZeros64(ws)] |= 1 << uint(i)
		}
	}
	var witness []OpRecord
	if s.dfs(0, obj.Init(), &witness) {
		return true, witness
	}
	return false, nil
}

// ExplainEvents is Collect followed by Explain over an already-snapshotted
// event slice: it returns the verdict, a sequential witness when one
// exists, and the detectability report. Histories beyond the 63-op search
// limit are reported as an error rather than a panic, so bounded explorers
// (internal/explore) can surface them as configuration mistakes.
func ExplainEvents(obj spec.Object, events []history.Event) (ok bool, witness []OpRecord, rep Report, err error) {
	recs, rep, err := Collect(events)
	if err != nil {
		return false, nil, rep, err
	}
	if len(recs) > MaxOps {
		return false, nil, rep, fmt.Errorf("linearize: %d operations exceed the %d-op search limit; segment the history", len(recs), MaxOps)
	}
	ok, witness = Explain(obj, recs)
	return ok, witness, rep, nil
}

// CheckLog is a convenience wrapper: Collect followed by Check.
func CheckLog(obj spec.Object, log *history.Log) (bool, Report, error) {
	recs, rep, err := Collect(log.Events())
	if err != nil {
		return false, rep, err
	}
	return Check(obj, recs), rep, nil
}

type searcher struct {
	obj       spec.Object
	recs      []OpRecord
	succ      []uint64 // by record: the records that follow it (After)
	mandatory uint64
	memo      map[string]bool
}

// dfs tries to extend a partial linearization. done is the set of already
// linearized ops; state is the object state after them.
func (s *searcher) dfs(done uint64, state string, witness *[]OpRecord) bool {
	if done&s.mandatory == s.mandatory {
		return true
	}
	key := strconv.FormatUint(done, 16) + "|" + state
	if v, ok := s.memo[key]; ok {
		// Memo only stores failures: successes return immediately.
		return v
	}
	// minRet is the earliest completion among mandatory not-yet-linearized
	// operations; any op linearized next must have been invoked before it.
	minRet := math.MaxInt
	for i, r := range s.recs {
		if done&(1<<uint(i)) != 0 || r.Optional {
			continue
		}
		if r.Ret < minRet {
			minRet = r.Ret
		}
	}
	for i, r := range s.recs {
		if done&(1<<uint(i)) != 0 {
			continue
		}
		if r.Inv > minRet {
			continue // some completed op must precede r
		}
		if r.After&s.mandatory&^done != 0 || s.succ[i]&done != 0 {
			continue // a record r follows is still to come, or one following r came
		}
		next, resp := s.obj.Apply(state, r.Op)
		if r.HasResp && resp != r.Resp {
			continue
		}
		*witness = append(*witness, r)
		if s.dfs(done|1<<uint(i), next, witness) {
			return true
		}
		*witness = (*witness)[:len(*witness)-1]
	}
	s.memo[key] = false
	return false
}
