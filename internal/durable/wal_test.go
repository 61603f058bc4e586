package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"detectable/internal/runtime"
)

// syncHook is the fault seam of a log's barrier: a test-file File whose
// Sync calls sync with the file it wraps.
type syncHook struct {
	File
	sync func(File) error
}

func (h syncHook) Sync() error { return h.sync(h.File) }

// hookFs opens the log's own path as a syncHook, so the file a rewrite
// reopens keeps the hook; the rewrite's temporary file syncs for real.
type hookFs struct {
	Fs
	path string
	sync func(File) error
}

func (h hookFs) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := h.Fs.OpenFile(path, flag, perm)
	if err == nil && path == h.path {
		f = syncHook{f, h.sync}
	}
	return f, err
}

// hookSync makes every later barrier of l fsync through sync, across
// rewrites too.
func hookSync(l *Log, sync func(File) error) {
	l.bmu.Lock()
	l.mu.Lock()
	l.f = syncHook{l.f, sync}
	l.fs = hookFs{l.fs, l.path, sync}
	l.mu.Unlock()
	l.bmu.Unlock()
}

// readTree returns every file of the flat directory dir by name.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	tree := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		tree[e.Name()] = data
	}
	return tree
}

// TestOpenRefusesVersion1Directory builds, by hand, a data directory as each
// older layout left it — version 1: one log per shard and a sessions log;
// version 2: one write-ahead log with shard and sessions snapshots beside
// it; version 3: the one log, its put-at records unstamped — and checks that
// Open refuses it by naming both versions and leaves every byte of it alone:
// there is no upgrader and no second reader to fall into.
func TestOpenRefusesVersion1Directory(t *testing.T) {
	hello := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64([]byte{recHello}, 1), 0)
	outcome := frame(appendOutcomeRec(nil, 1, 1, []byte("k=7")))
	// A bare put, the record of the older layouts' per-shard files: kind
	// 0x01, u16 key length, key, i64 value. Up to version 3 a put-at record
	// was the kind, a u32 shard index and a bare put.
	encodePut := func(key string, val int64) []byte {
		put := binary.BigEndian.AppendUint16([]byte{0x01}, uint16(len(key)))
		return binary.BigEndian.AppendUint64(append(put, key...), uint64(val))
	}
	encodeV3PutAt := func(key string, val int64) []byte {
		return append(binary.BigEndian.AppendUint32([]byte{recPutAt}, 0), encodePut(key, val)...)
	}
	for version, old := range map[int]map[string][]byte{
		1: {
			"MANIFEST":      []byte(`{"version":1,"shards":2,"procs":2}` + "\n"),
			"LOCK":          {},
			"shard-000.log": frame(encodePut("k", 7)),
			"shard-001.log": {},
			"sessions.log":  append(frame(hello), outcome...),
		},
		2: {
			"MANIFEST":       []byte(`{"version":2,"shards":2,"procs":2}` + "\n"),
			"LOCK":           {},
			"shard-000.snap": frame(encodePut("k", 6)),
			"sessions.snap":  frame(hello),
			"wal.log":        append(frame(encodeV3PutAt("k", 7)), outcome...),
			"wal.log.tmp":    frame(hello), // not even a leftover temporary is touched
		},
		3: {
			"MANIFEST": []byte(`{"version":3,"shards":2,"procs":2}` + "\n"),
			"LOCK":     {},
			"wal.log":  append(append(frame(hello), frame(encodeV3PutAt("k", 7))...), outcome...),
		},
	} {
		dir := t.TempDir()
		for name, data := range old {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		db, err := Open(dir, 2, 2, 4)
		if err == nil {
			db.Close()
			t.Fatalf("Open accepted a version %d data directory", version)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("version %d ", version)) || !strings.Contains(err.Error(), "version 4") {
			t.Fatalf("refusal %q does not name version %d and version 4", err, version)
		}
		if got := readTree(t, dir); !reflect.DeepEqual(got, old) {
			t.Fatalf("the refused version %d directory was modified:\n got %q\nwant %q", version, got, old)
		}
	}
}

// TestWALRecoveryDispatch pins what one scan of a hand-built write-ahead log
// recovers: records dispatch by kind in log order, a torn epoch tail is cut
// at the first bad frame (keeping the puts, dropping the outcome), and a
// well-framed put-at for a shard the store does not have is refused.
func TestWALRecoveryDispatch(t *testing.T) {
	hello := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64([]byte{recHello}, 1), 0)
	outcome := frame(appendOutcomeRec(nil, 1, 1, []byte("k=2")))
	wal := bytes.Join([][]byte{
		frame(encodePutAt(nil, 0, "k", 1, stamp{})),
		frame(hello), // a session record between two puts
		frame(encodePutAt(nil, 1, "j", 5, stamp{})),
		frame(encodePutAt(nil, 0, "k", 2, stamp{})),
		outcome,
	}, nil)

	open := func(wal []byte) (*DB, error) {
		dir := t.TempDir()
		db, err := Open(dir, 2, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		db.Close()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		return Open(dir, 2, 2, 4)
	}
	state := func(db *DB) (kv map[string]int64, window SessionState) {
		kv = map[string]int64{}
		for i := 0; i < db.NumShards(); i++ {
			db.RangeShard(i, func(k string, v int64) { kv[k] = v })
		}
		for _, s := range db.Sessions() {
			window = s
		}
		return kv, window
	}

	db, err := open(wal)
	if err != nil {
		t.Fatalf("intact log: %v", err)
	}
	kv, window := state(db)
	db.Close()
	if !reflect.DeepEqual(kv, map[string]int64{"k": 2, "j": 5}) || string(window.Reply(1)) != "k=2" {
		t.Fatalf("intact log recovered %v / %q", kv, window)
	}

	db, err = open(wal[:len(wal)-3])
	if err != nil {
		t.Fatalf("torn epoch tail: %v", err)
	}
	kv, window = state(db)
	size := db.wal.Appended() // never rewritten: the whole recovered log
	db.Close()
	if !reflect.DeepEqual(kv, map[string]int64{"k": 2, "j": 5}) || len(window.Window) != 0 {
		t.Fatalf("torn epoch tail recovered %v / %q, want both puts and no outcome", kv, window)
	}
	if want := int64(len(wal) - len(outcome)); size != want {
		t.Fatalf("torn tail left %d log bytes, want the %d-byte valid prefix", size, want)
	}

	if db, err = open(append(wal, frame(encodePutAt(nil, 2, "k", 9, stamp{}))...)); err == nil {
		db.Close()
		t.Fatal("Open accepted a put-at record for shard 2 of 2")
	}
}

// TestOpenRefusesOutOfDomainValue: a build that accepted any int64 may have
// journaled a value no register of the store can hold (at N = 8 a register
// holds [−2^59, 2^59)). Open refuses such a directory, naming the key and
// the domain, and leaves its log alone; replay refuses the record itself,
// so a wide value a later put replaced is refused too.
func TestOpenRefusesOutOfDomainValue(t *testing.T) {
	const procs = 8
	build := func(recs ...[]byte) string {
		dir := t.TempDir()
		db, err := Open(dir, 2, procs, 4)
		if err != nil {
			t.Fatal(err)
		}
		db.Close()
		var wal []byte
		for _, rec := range recs {
			wal = append(wal, frame(rec)...)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	dir := build(encodePutAt(nil, 0, "narrow", 1<<59-1, stamp{}), encodePutAt(nil, 1, "wide", 1<<62, stamp{}))
	before := readTree(t, dir)
	for try := 0; try < 2; try++ { // the refusal released the directory's lock
		db, err := Open(dir, 2, procs, 4)
		if err == nil {
			db.Close()
			t.Fatal("Open accepted a journaled value outside the register domain")
		}
		if msg := err.Error(); !strings.Contains(msg, `"wide"`) || !strings.Contains(msg, "[-2^59, 2^59)") {
			t.Fatalf("refusal %q does not name the key and the domain", msg)
		}
	}
	if got := readTree(t, dir); !reflect.DeepEqual(got, before) {
		t.Fatal("the refused directory was modified")
	}

	if db, err := Open(build(encodePutAt(nil, 1, "wide", -1<<62, stamp{}), encodePutAt(nil, 1, "wide", -1<<59, stamp{})), 2, procs, 4); err == nil {
		db.Close()
		t.Fatal("Open accepted a replaced journaled value outside the register domain")
	}
}

// TestAppendDoesNotWaitForTheBarrier holds a barrier's fsync open and
// checks that a record can still be staged meanwhile — with one log, a Sync
// that held the staging lock across its I/O would stall every shard's
// journalPut — and that the next barrier makes that record durable.
func TestAppendDoesNotWaitForTheBarrier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	inFsync, release := make(chan struct{}), make(chan struct{})
	first := true // the hook runs under the log's barrier lock
	hookSync(l, func(f File) error {
		if first {
			first = false
			close(inFsync)
			<-release
		}
		return f.Sync()
	})
	if err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }()
	<-inFsync
	if err := l.Append([]byte("second")); err != nil { // hangs here if Append waits for the disk
		t.Fatal(err)
	}
	if got, want := l.Appended(), int64(2*frameHeader+len("first")+len("second")); got != want {
		t.Fatalf("Appended with a batch in flight = %d, want %d", got, want)
	}
	close(release)
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := collect(t, path); len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("replayed %q, want first then second", got)
	}
}

// TestSyncHookOutlivesRewrite: a rewrite reopens the log's file, and its
// barriers still fsync through the hook; the rewrite's own temporary file
// does not.
func TestSyncHookOutlivesRewrite(t *testing.T) {
	l, err := OpenLog(filepath.Join(t.TempDir(), "x.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	calls := 0
	hookSync(l, func(f File) error { calls++; return f.Sync() })
	for i, step := range []func() error{
		func() error { return l.Append([]byte("a")) },
		l.Sync,
		l.Reset,
		func() error { return l.Append([]byte("b")) },
		l.Sync,
	} {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if calls != 2 {
		t.Fatalf("hooked fsyncs = %d, want 2: one per barrier, before and after the rewrite", calls)
	}
}

// TestAllocPinCommitOutcomeSyncSubscriber pins the allocations of a warm
// commit in an epoch gated by a sync subscriber's ack, on both paths a
// served write takes: the bare barrier behind stamped put-at records that
// every linearized write rides, and CommitOutcome, the outcome record of a
// reply holding a failed verdict. Each reads 0: the window copies the reply
// into its slot's reused buffer, the epoch is recycled with its buffer, and
// waiting for the ack allocates nothing (no slice of subscribers, no timer
// per wait).
func TestAllocPinCommitOutcomeSyncSubscriber(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on channel hand-off")
	}
	db, err := Open(t.TempDir(), 2, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sub := db.Subscribe(0)
	defer sub.Close()
	go func() { // the standby: acknowledge every barrier
		for {
			chunk, err := sub.Next()
			if err != nil {
				return
			}
			for len(chunk) > 0 {
				n := 4 + int(binary.BigEndian.Uint32(chunk))
				if chunk[4] == ReplBarrier {
					sub.Ack(binary.BigEndian.Uint64(chunk[5:]))
				}
				chunk = chunk[n:]
			}
		}
	}()
	// The gate engages once the standby has acked its bootstrap's barrier. A
	// lone committer never parks before that, so on one CPU it has to wait
	// for the standby here.
	for deadline := time.Now().Add(10 * time.Second); db.repl.nsync.Load() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the subscriber never acked its bootstrap's barrier")
		}
	}
	if err := db.AppendHello(1, 0); err != nil {
		t.Fatal(err)
	}
	req, reply := uint64(0), []byte("reply-ok")
	commit := func() {
		req++
		db.ShardBacking(int(req%2)).Persist("key", int64(req))
		if err := db.CommitOutcome(1, req, reply); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // fill the window, grow every buffer
		commit()
	}
	if _, _, subs := db.ReplStatus(); subs != 1 || db.repl.nsync.Load() != 1 {
		t.Fatalf("the subscriber is not gating commits (subs=%d nsync=%d)", subs, db.repl.nsync.Load())
	}
	if got := testing.AllocsPerRun(200, commit); got > 3 {
		t.Fatalf("warm CommitOutcome with a sync subscriber: %.1f allocs/op, want ≤ 3", got)
	}
	stamped := func() {
		req++
		db.BeginRequest(0, req)
		db.ShardBacking(int(req%2)).Journal("key", int64(req), Stamp{Status: int(runtime.StatusOK)})
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		stamped()
	}
	if got := testing.AllocsPerRun(200, stamped); got > 3 {
		t.Fatalf("warm stamped put and bare barrier with a sync subscriber: %.1f allocs/op, want ≤ 3", got)
	}
}
