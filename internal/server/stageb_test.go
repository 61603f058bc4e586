package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"detectable/internal/durable"
	"detectable/internal/linearize"
	"detectable/internal/shardkv"
	"detectable/internal/simio"
	"detectable/internal/spec"
)

// ROADMAP item 1, Stage B — a GET that sees a write whose record a crash can
// still undo — as deterministic traces through a real server on the
// simulated filesystem, four processes on one key:
//
//	A: PUT k := 7, parked in its epoch
//	B: GET k, answered while A is parked
//	the node dies without A's record, and recovery
//	C: PUT k := 9 → ok
//	A: resumes its session and re-sends the PUT, which finds no verdict
//	   and runs again
//	D: GET k
//
// If B read 7, A's write linearized before B's read returned, C's write
// came after it, and D reading 7 has no explanation: the history is not
// linearizable. linearize.Check judges it. A GET that reads only what every
// node holds reads 0, and the history is A's write, as re-sent, following
// C's.
//
// Two things vary, and TestStageBReadMatrix runs every combination:
//
//   - who recovers. Restart: A's epoch is parked at its WAL fsync (a gate on
//     the simulated disk), and the node restarts from what is durable then.
//     Promote: a gating standby is fed the stream up to A's epoch and holds
//     its acknowledgement of it; the primary dies and the standby is
//     promoted.
//   - what kind of session B and D read on: a data session or a slotless
//     (read-only) one.
const (
	stageBKey   = "k"
	stageBProcs = 4
)

// stageBGate is the simulated filesystem with a one-shot gate on the
// write-ahead log's fsync: once armed, the next such fsync reports on
// entered and waits for release before it reaches the simulation.
type stageBGate struct {
	*simio.Fs
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *stageBGate) OpenFile(path string, flag int, perm os.FileMode) (durable.File, error) {
	f, err := g.Fs.OpenFile(path, flag, perm)
	if err != nil || filepath.Base(path) != "wal.log" {
		return f, err
	}
	return stageBGateFile{File: f, g: g}, nil
}

type stageBGateFile struct {
	durable.File
	g *stageBGate
}

func (f stageBGateFile) Sync() error {
	if f.g.armed.CompareAndSwap(true, false) {
		f.g.entered <- struct{}{}
		<-f.g.release
	}
	return f.File.Sync()
}

// stageBHistory records the trace's operations on one logical clock.
type stageBHistory struct {
	clock int
	recs  []linearize.OpRecord
}

// invoke starts an operation of process pid and returns its record's index.
func (h *stageBHistory) invoke(pid int, op spec.Operation) int {
	h.recs = append(h.recs, linearize.OpRecord{PID: pid, Op: op, Inv: h.clock})
	h.clock++
	return len(h.recs) - 1
}

// ret completes record i with resp.
func (h *stageBHistory) ret(i, resp int) {
	h.recs[i].Resp, h.recs[i].HasResp, h.recs[i].Ret = resp, true, h.clock
	h.clock++
}

// stageBHello opens a session on rc: a data one, or a slotless read-only one.
func stageBHello(t *testing.T, rc *rawConn, slotless bool) {
	t.Helper()
	if slotless {
		helloReadOnly(t, rc)
	} else {
		rc.hello(t, 0)
	}
}

// stageBGet runs process pid's GET k on rc as request reqID.
func stageBGet(t *testing.T, h *stageBHistory, rc *rawConn, pid int, reqID uint64) int {
	t.Helper()
	i := h.invoke(pid, spec.NewOp(spec.MethodRead))
	out := hole1AOutcome(t, rc.roundTrip(t, AppendGet(nil, reqID, 0, stageBKey)))
	h.ret(i, out.Resp)
	return out.Resp
}

// stageBRun drives one trace and returns its history and what B read.
func stageBRun(t *testing.T, promote, slotless bool) (recs []linearize.OpRecord, b int) {
	t.Helper()
	var h stageBHistory
	addr := reserveAddr(t)
	gate := &stageBGate{Fs: simio.New(), entered: make(chan struct{}), release: make(chan struct{})}
	db, srv := hole1AServe(t, gate, stageBProcs, addr)
	parked := gate.entered

	// Promote: a standby fed the stream, acknowledging every epoch until
	// the first that carries a put — A's. It applies nothing from there on,
	// and says so once A's epoch is anchored on the primary (its commit
	// mark); the primary's anchor then waits for the acknowledgement, up to
	// the ack timeout.
	var sdb *durable.DB
	var sub *durable.ReplSub
	pumped := make(chan struct{})
	if promote {
		db.SetReplAckTimeout(10 * time.Second)
		var err error
		if sdb, err = durable.OpenFs(simio.New(), "/data", 2, stageBProcs, Window); err != nil {
			t.Fatal(err)
		}
		committed, gating := make(chan struct{}, 1), make(chan struct{})
		parked = committed
		sub = db.Subscribe(0)
		rp := sdb.NewReplica()
		go func() {
			defer close(pumped)
			cut, acked := false, false
			for {
				chunk, err := sub.Next()
				if err != nil {
					if !errors.Is(err, io.EOF) {
						t.Errorf("stream: %v", err)
					}
					return
				}
				for len(chunk) > 0 {
					n := 4 + int(binary.BigEndian.Uint32(chunk))
					m := chunk[4:n]
					chunk = chunk[n:]
					cut = cut || stageBCarriesPut(m)
					if cut {
						if m[0] == durable.ReplCommit {
							select {
							case committed <- struct{}{}:
							default:
							}
						}
						continue
					}
					seq, barrier, err := rp.Apply(m)
					if err != nil {
						t.Errorf("Apply (kind 0x%02x): %v", m[0], err)
						return
					}
					if barrier {
						sub.Ack(seq) // the first, the bootstrap's, makes it gate commits
						if !acked {
							acked = true
							close(gating)
						}
					}
				}
			}
		}()
		select {
		case <-gating:
		case <-time.After(10 * time.Second):
			t.Fatal("the standby never acknowledged its bootstrap")
		}
	} else {
		close(pumped)
	}

	rcA, rcB := dialRaw(t, addr), dialRaw(t, addr)
	sidA, _ := rcA.hello(t, 0)
	stageBHello(t, rcB, slotless)

	put7 := AppendPut(nil, 1, 0, stageBKey, 7)
	a := h.invoke(0, spec.NewOp(spec.MethodWrite, 7))
	gate.armed.Store(!promote)
	bw := bufio.NewWriter(rcA.c)
	if err := WriteFrame(bw, put7); err != nil || bw.Flush() != nil {
		t.Fatalf("send A's PUT: %v", err)
	}
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("A's PUT never parked in its epoch")
	}
	b = stageBGet(t, &h, rcB, 1, 1)

	// The node dies. On restart it comes back from what its disk holds
	// durably now, which lacks A's record; the standby never anchored it.
	var image *simio.Fs
	if !promote {
		journal := gate.Journal()
		image = simio.FromImage(simio.DurableImage(journal, len(journal)))
	}
	rcA.c.Close()
	rcB.c.Close()
	close(gate.release)
	if sub != nil {
		sub.Close()
	}
	srv.Close()
	db.Close()
	<-pumped

	var srv2 *Server
	if promote {
		srv2 = NewStandby(sdb, func() *shardkv.Store { return shardkv.New(2, stageBProcs, shardkv.Durable(sdb)) })
		if err := srv2.Listen(addr); err != nil {
			t.Fatalf("standby Listen: %v", err)
		}
		if _, err := srv2.Promote(); err != nil {
			t.Fatalf("Promote: %v", err)
		}
	} else {
		sdb, srv2 = hole1AServe(t, image, stageBProcs, addr)
	}
	defer sdb.Close()
	defer srv2.Close()

	rcC := dialRaw(t, addr)
	defer rcC.c.Close()
	rcC.hello(t, 0)
	c := h.invoke(2, spec.NewOp(spec.MethodWrite, 9))
	hole1AOutcome(t, rcC.roundTrip(t, AppendPut(nil, 1, 0, stageBKey, 9)))
	h.ret(c, spec.Ack)

	rcA2 := dialRaw(t, addr)
	defer rcA2.c.Close()
	if _, resumed := rcA2.hello(t, sidA); !resumed {
		t.Fatal("A's session did not resume on the recovered node")
	}
	hole1AOutcome(t, rcA2.roundTrip(t, put7))
	h.ret(a, spec.Ack)

	rcD := dialRaw(t, addr)
	defer rcD.c.Close()
	stageBHello(t, rcD, slotless)
	stageBGet(t, &h, rcD, 3, 1)
	return h.recs, b
}

// stageBCarriesPut reports whether a stream message is a ReplLog message
// holding a put-at record.
func stageBCarriesPut(m []byte) bool {
	const recPutAt = 0x06
	if m[0] != durable.ReplLog {
		return false
	}
	for off := 1; off < len(m); off += 8 + int(binary.BigEndian.Uint32(m[off:])) {
		if m[off+8] == recPutAt {
			return true
		}
	}
	return false
}

// TestStageBReadMatrix runs the trace through both recoveries and both kinds
// of reading session. Every history must be linearizable, and B must have
// read the key's value from before A's write.
func TestStageBReadMatrix(t *testing.T) {
	for _, recovery := range []string{"restart", "promote"} {
		for _, kind := range []string{"data", "slotless"} {
			t.Run(recovery+"/"+kind+"-get", func(t *testing.T) {
				recs, b := stageBRun(t, recovery == "promote", kind == "slotless")
				if !linearize.Check(spec.Register{}, recs) {
					t.Fatalf("B read %d; the history is not linearizable: %v", b, recs)
				}
				if b != 0 {
					t.Fatalf("B read %d while A's PUT was parked, want 0", b)
				}
			})
		}
	}
}

// TestStageBPromoteConvictsPublishAtBarrier is the test of the test: a
// primary that publishes an epoch to readers at its fold, before the gating
// standby has acknowledged it, shows B a value the promoted standby never
// had, and the promote column must say so for both kinds of reader.
func TestStageBPromoteConvictsPublishAtBarrier(t *testing.T) {
	durable.MutantPublishAtBarrier = true
	defer func() { durable.MutantPublishAtBarrier = false }()
	for _, slotless := range []bool{false, true} {
		if recs, b := stageBRun(t, true, slotless); linearize.Check(spec.Register{}, recs) {
			t.Fatalf("publish-at-fold mutant survived the promote column (slotless %v, B read %d): %v", slotless, b, recs)
		}
	}
}
