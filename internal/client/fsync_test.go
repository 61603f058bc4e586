package client_test

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"detectable/internal/client"
	"detectable/internal/durable"
	"detectable/internal/server"
	"detectable/internal/shardkv"
)

// countingFs counts the file fsyncs a node issues through the durable.Fs
// seam (directory syncs are not fsyncs of data and are not counted), and the
// records and their framed bytes it writes to its write-ahead log (the pad
// behind them is not counted). Once hold is armed, the next fsync is
// counted, reports on held and waits for release before it reaches the
// disk.
type countingFs struct {
	durable.Fs
	fsyncs     atomic.Int64
	records    atomic.Int64
	recordSize atomic.Int64
	hold       atomic.Bool
	held       chan struct{}
	release    chan struct{}
}

func (c *countingFs) OpenFile(path string, flag int, perm os.FileMode) (durable.File, error) {
	f, err := c.Fs.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

type countingFile struct {
	durable.File
	fs *countingFs
}

func (f countingFile) WriteAt(p []byte, off int64) (int, error) {
	if filepath.Base(f.Name()) == "wal.log" {
		for b := p; len(b) >= durable.FrameHeader; {
			n := durable.FrameHeader + int(binary.BigEndian.Uint32(b))
			if n == durable.FrameHeader || n > durable.FrameHeader+durable.MaxRecord || n > len(b) {
				break // the pad, or what a barrier writes of it
			}
			f.fs.records.Add(1)
			f.fs.recordSize.Add(int64(n))
			b = b[n:]
		}
	}
	return f.File.WriteAt(p, off)
}

func (f countingFile) Sync() error {
	f.fs.fsyncs.Add(1)
	if f.fs.hold.CompareAndSwap(true, false) {
		f.fs.held <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

const (
	pinShards = 4
	pinProcs  = 4
)

// pinNode is one durable node of the pinned stack, its fsyncs counted from
// before the directory exists.
type pinNode struct {
	fs  countingFs
	db  *durable.DB
	srv *server.Server
}

func (n *pinNode) open(t *testing.T) {
	t.Helper()
	n.fs.Fs = durable.OS
	n.fs.held, n.fs.release = make(chan struct{}), make(chan struct{})
	db, err := durable.OpenFs(&n.fs, t.TempDir(), pinShards, pinProcs, server.Window)
	if err != nil {
		t.Fatalf("durable.OpenFs: %v", err)
	}
	n.db = db
	t.Cleanup(func() {
		if n.srv != nil {
			n.srv.Close()
		}
		db.Close() //nolint:errcheck // the directory is scratch
	})
}

func (n *pinNode) store() *shardkv.Store {
	return shardkv.New(pinShards, pinProcs, shardkv.Durable(n.db))
}

func startPinPrimary(t *testing.T) *pinNode {
	t.Helper()
	p := &pinNode{}
	p.open(t)
	p.srv = server.New(p.store())
	if err := p.srv.AttachDurable(p.db); err != nil {
		t.Fatalf("AttachDurable: %v", err)
	}
	if err := p.srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	return p
}

// attachPinStandby starts a sync standby behind p and waits until it gates
// p's commits and has applied everything p committed.
func attachPinStandby(t *testing.T, p *pinNode) *pinNode {
	t.Helper()
	s := &pinNode{}
	s.open(t)
	s.srv = server.NewStandby(s.db, s.store)
	if err := s.srv.StartReplication(p.srv.Addr().String()); err != nil {
		t.Fatalf("StartReplication: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		seq, acked, subs := p.db.ReplStatus()
		if subs == 1 && seq > 0 && acked >= seq && s.db.ViewSeq() >= seq {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby not in sync: seq=%d acked=%d subs=%d applied=%d", seq, acked, subs, s.db.ViewSeq())
		}
	}
}

// allShardsBatch returns one entry per shard, round r's value.
func allShardsBatch(r int) []shardkv.KV {
	batch := make([]shardkv.KV, 0, pinShards)
	var have [pinShards]bool
	for i := 0; len(batch) < pinShards; i++ {
		key := fmt.Sprintf("pin-%d", i)
		if s := shardkv.ShardIndex(key, pinShards); !have[s] {
			have[s] = true
			batch = append(batch, shardkv.KV{Key: key, Val: r})
		}
	}
	return batch
}

// TestFsyncCountPins pins what one operation costs the disk, on the served
// stack as kvserverd runs it: a commit epoch is one fsync on the primary and
// one on a sync standby however many shards it touched, a session's hello
// and end are one each, a GET is none, and the PUTs of several sessions that
// arrive while an fsync is in flight share the next one.
func TestFsyncCountPins(t *testing.T) {
	p := startPinPrimary(t)
	nodes := []*pinNode{p}

	// step runs op and requires exactly want more fsyncs on every node. The
	// reply to CLOSE is sent before the END is anchored, so the count is
	// given a moment to arrive; a count that overshoots fails here or as the
	// next step's surplus.
	step := func(name string, want int64, op func() error) {
		t.Helper()
		before := make([]int64, len(nodes))
		for i, n := range nodes {
			before[i] = n.fs.fsyncs.Load()
		}
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, n := range nodes {
			deadline := time.Now().Add(2 * time.Second)
			for n.fs.fsyncs.Load()-before[i] < want && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := n.fs.fsyncs.Load() - before[i]; got != want {
				t.Fatalf("%s: node %d issued %d fsyncs, want exactly %d", name, i, got, want)
			}
		}
	}

	round := 0
	pins := func(phase string) {
		var c *client.Client
		step(phase+" hello", 1, func() (err error) {
			c, err = client.Dial(p.srv.Addr().String())
			return err
		})
		round++
		step(phase+" MPUT over all 4 shards", 1, func() error {
			outs, err := c.MultiPut(allShardsBatch(round))
			for _, out := range outs {
				if !out.Status.Linearized() {
					return fmt.Errorf("a write returned %v", out.Status)
				}
			}
			return err
		})
		step(phase+" PUT", 1, func() error { _, err := c.Put("pin-0", round); return err })
		step(phase+" GET", 0, func() error { _, err := c.Get("pin-0"); return err })

		more := make([]*client.Client, pinProcs-1)
		for i := range more {
			step(fmt.Sprintf("%s hello of session %d", phase, i+2), 1, func() (err error) {
				more[i], err = client.Dial(p.srv.Addr().String())
				return err
			})
		}
		step(fmt.Sprintf("%s a PUT held in its fsync, %d sessions' PUTs behind it", phase, len(more)), 2, func() error {
			errs := make(chan error, 1+len(more))
			p.fs.hold.Store(true)
			go func() { _, err := c.Put("pin-0", round); errs <- err }()
			<-p.fs.held
			_, staged := p.db.GroupCommitStats()
			for i, m := range more {
				go func() { _, err := m.Put(fmt.Sprintf("pin-%d", i+1), round); errs <- err }()
			}
			for _, now := p.db.GroupCommitStats(); now < staged+uint64(len(more)); _, now = p.db.GroupCommitStats() {
				time.Sleep(time.Millisecond)
			}
			p.fs.release <- struct{}{}
			for range 1 + len(more) {
				if err := <-errs; err != nil {
					return err
				}
			}
			return nil
		})
		for i, m := range more {
			step(fmt.Sprintf("%s end of session %d", phase, i+2), 1, m.Close)
		}
		step(phase+" end", 1, c.Close)
	}
	pins("primary alone:")
	nodes = append(nodes, attachPinStandby(t, p))
	pins("with a sync standby:")
}

// TestPreloadFsyncCount: 64 MPUT×64 commits on a fresh directory — the
// benchmark's preload — cost one fsync each, plus the MANIFEST at open and
// the session's hello.
func TestPreloadFsyncCount(t *testing.T) {
	p := startPinPrimary(t)
	c, err := client.Dial(p.srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close() //nolint:errcheck
	const commits, width = 64, 64
	batch := make([]shardkv.KV, width)
	for i := 0; i < commits; i++ {
		for j := range batch {
			batch[j] = shardkv.KV{Key: fmt.Sprintf("bench-%d", i*width+j), Val: 1}
		}
		if _, err := c.MultiPut(batch); err != nil {
			t.Fatalf("MPUT %d: %v", i, err)
		}
	}
	if got := p.fs.fsyncs.Load(); got < commits || got > commits+2 {
		t.Fatalf("open + hello + %d MPUT×%d commits issued %d fsyncs, want %d to %d", commits, width, got, commits, commits+2)
	}
}

// TestWALRecordPins pins what one acknowledged operation writes to a durable
// primary's write-ahead log, one request in flight: a PUT and a DEL are one
// record each, their put-at stamped with the request's ID and verdict, which
// is the verdict; an MPUT of 16 whose entries all linearized is its 16
// stamped put-at records, which carry every entry's verdict, and no outcome
// record; an empty MPUT writes nothing. It logs the bytes per operation.
func TestWALRecordPins(t *testing.T) {
	p := startPinPrimary(t)
	c, err := client.Dial(p.srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close() //nolint:errcheck
	mput := make([]shardkv.KV, 16)
	for i := range mput {
		mput[i] = shardkv.KV{Key: fmt.Sprintf("pin-%02d", i), Val: i + 1}
	}
	const ops = 8
	for _, op := range []struct {
		name    string
		records int64
		run     func(i int) error
	}{
		{"PUT", 1, func(i int) error { _, err := c.Put(fmt.Sprintf("pin-%02d", i), i+1); return err }},
		{"DEL", 1, func(i int) error { _, err := c.Del(fmt.Sprintf("pin-%02d", i)); return err }},
		{"MPUT×16", 16, func(int) error { _, err := c.MultiPut(mput); return err }},
		{"MPUT×0", 0, func(int) error { _, err := c.MultiPut(nil); return err }},
	} {
		records, size := p.fs.records.Load(), p.fs.recordSize.Load()
		for i := range ops {
			if err := op.run(i); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
		}
		records, size = p.fs.records.Load()-records, p.fs.recordSize.Load()-size
		if records != ops*op.records {
			t.Fatalf("%d acknowledged %ss wrote %d WAL records, want %d each", ops, op.name, records, op.records)
		}
		t.Logf("%s: %d WAL record(s), %d bytes per acknowledged op", op.name, records/ops, size/ops)
	}
}
