package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// collect reopens the log at path and returns every valid record.
func collect(t *testing.T, path string) [][]byte {
	t.Helper()
	var recs [][]byte
	l, err := OpenLog(path, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	l.Close()
	return recs
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("alpha"), []byte("gamma-longer-record")}
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got := collect(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestLogTornFinalRecord cuts the last record mid-payload: recovery must
// keep the valid prefix, truncate the torn tail, and leave the log
// appendable.
func TestLogTornFinalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := OpenLog(path, nil)
	l.Append([]byte("first"))
	l.Append([]byte("second-record"))
	l.Sync()
	l.Close()

	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	got := collect(t, path)
	if len(got) != 1 || string(got[0]) != "first" {
		t.Fatalf("after torn tail: records %q, want just %q", got, "first")
	}
	st, _ := os.Stat(path)
	if want := int64(frameHeader + len("first")); st.Size() != want {
		t.Fatalf("file not truncated to valid prefix: size %d, want %d", st.Size(), want)
	}

	// The truncated log must accept appends and replay the combined prefix.
	l2, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2.Append([]byte("third"))
	l2.Sync()
	l2.Close()
	got = collect(t, path)
	if len(got) != 2 || string(got[1]) != "third" {
		t.Fatalf("append after truncation: records %q", got)
	}
}

// TestLogCRCMismatch flips a payload byte: the corrupted record and
// everything after it fall off the valid prefix.
func TestLogCRCMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := OpenLog(path, nil)
	l.Append([]byte("aaaa"))
	l.Append([]byte("bbbb"))
	l.Append([]byte("cccc"))
	l.Sync()
	l.Close()

	data, _ := os.ReadFile(path)
	// Corrupt the middle record's payload (record layout: 8-byte header +
	// 4-byte payload each).
	data[frameHeader+4+frameHeader] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	got := collect(t, path)
	if len(got) != 1 || string(got[0]) != "aaaa" {
		t.Fatalf("after mid-log corruption: records %q, want just %q (prefix semantics)", got, "aaaa")
	}
}

// TestLogImpossibleLength writes a length field larger than MaxRecord:
// treated as corruption, not an allocation request.
func TestLogImpossibleLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := OpenLog(path, nil)
	l.Append([]byte("ok"))
	l.Sync()
	l.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:], MaxRecord+1)
	f.Write(hdr[:])
	f.Close()
	got := collect(t, path)
	if len(got) != 1 || string(got[0]) != "ok" {
		t.Fatalf("after impossible length: records %q", got)
	}
}

// shardState reopens dir and returns shard i's recovered roots.
func shardState(t *testing.T, dir string, shards, procs int, i int) map[string]int64 {
	t.Helper()
	db, err := Open(dir, shards, procs, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	got := map[string]int64{}
	db.RangeShard(i, func(k string, v int64) { got[k] = v })
	return got
}

func TestDBShardRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := db.ShardBacking(0)
	b.Persist("k1", 10)
	b.Persist("k2", 20)
	b.Persist("k1", 11) // last-wins
	db.ShardBacking(1).Persist("other", 7)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	if got := shardState(t, dir, 2, 2, 0); !reflect.DeepEqual(got, map[string]int64{"k1": 11, "k2": 20}) {
		t.Fatalf("shard 0 recovered %v", got)
	}
	if got := shardState(t, dir, 2, 2, 1); !reflect.DeepEqual(got, map[string]int64{"other": 7}) {
		t.Fatalf("shard 1 recovered %v", got)
	}
}

// TestRecoveryIdempotence: recovering twice (open → close → open) yields
// exactly the state recovering once did — recovery performs no writes that
// change the logical state.
func TestRecoveryIdempotence(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 1, 2, 4)
	for i := 0; i < 50; i++ {
		db.ShardBacking(0).Persist("k", int64(i))
	}
	db.AppendHello(3, 1)
	db.CommitOutcome(3, 9, []byte("reply-nine"))
	db.ShardBacking(0).Persist("k", 50) // the record the tear below cuts
	db.Close()

	// Tear the log tail so recovery also exercises the truncation path.
	path := filepath.Join(dir, "wal.log")
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-3], 0o644)

	first := shardState(t, dir, 1, 2, 0)
	second := shardState(t, dir, 1, 2, 0)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("recovery not idempotent: %v then %v", first, second)
	}
	db2, _ := Open(dir, 1, 2, 4)
	s1 := db2.Sessions()
	db2.Close()
	db3, _ := Open(dir, 1, 2, 4)
	s2 := db3.Sessions()
	db3.Close()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("session recovery not idempotent: %v then %v", s1, s2)
	}
	if len(s1) != 1 || s1[0].SID != 3 || string(s1[0].Reply(9)) != "reply-nine" {
		t.Fatalf("recovered sessions %v", s1)
	}
}

// TestShardCompaction drives the log over a tiny threshold and checks that
// the rewritten wal.log — the only record file there is — recovers the exact
// state and has shrunk to the state's size. Journaling alone never compacts;
// the Sync that anchors the puts does.
func TestShardCompaction(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 1, 1, 4)
	db.SetCompactThreshold(256)
	for i := 0; i < 100; i++ {
		db.ShardBacking(0).Persist("hot", int64(i))
		db.ShardBacking(0).Persist("cold", -1)
	}
	db.Sync()
	db.Close()

	// The state as a log: the roots in key order, then the sessions' records
	// (here only the session-ID mark).
	want := bytes.Join([][]byte{
		frame(encodePutAt(nil, 0, "cold", -1, stamp{})),
		frame(encodePutAt(nil, 0, "hot", 99, stamp{})),
		frame(binary.BigEndian.AppendUint64([]byte{recNextSID}, 0)),
	}, nil)
	tree := readTree(t, dir)
	if !bytes.Equal(tree["wal.log"], want) {
		t.Fatalf("compacted log is %d bytes, want the %d bytes of the state:\n got %x\nwant %x",
			len(tree["wal.log"]), len(want), tree["wal.log"], want)
	}
	delete(tree, "wal.log")
	delete(tree, "MANIFEST")
	delete(tree, "LOCK")
	if len(tree) != 0 {
		t.Fatalf("a data directory is MANIFEST, LOCK and wal.log; this one also holds %v", slices.Collect(maps.Keys(tree)))
	}
	got := shardState(t, dir, 1, 1, 0)
	if !reflect.DeepEqual(got, map[string]int64{"hot": 99, "cold": -1}) {
		t.Fatalf("recovered %v", got)
	}
}

// TestTruncatedCompactedLog breaks a record in the compacted part of the log:
// recovery keeps the valid prefix in front of it, and the records appended
// since the compaction, intact but behind the break, are dropped with it.
func TestTruncatedCompactedLog(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 1, 1, 4)
	db.ShardBacking(0).Persist("aa", 1)
	db.ShardBacking(0).Persist("bb", 2)
	db.Compact()
	db.ShardBacking(0).Persist("cc", 3) // appended behind the compacted state
	db.Sync()
	db.Close()

	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The compacted state is sorted (aa, bb): the last byte of bb's frame.
	aa := len(frame(encodePutAt(nil, 0, "aa", 1, stamp{})))
	data[2*aa-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	got := shardState(t, dir, 1, 1, 0)
	if want := map[string]int64{"aa": 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if st, _ := os.Stat(path); st.Size() != int64(aa) {
		t.Fatalf("log not truncated to its valid prefix: %d bytes, want %d", st.Size(), aa)
	}
}

// faultFs is the real filesystem with one injectable failure on the path a
// compaction takes, and a count of the compactions that got as far as their
// rename.
type faultFs struct {
	Fs
	failAt   string // "write", "fsync", "rename" or "syncdir"; "" fails nothing
	rewrites int    // renames onto wal.log
}

var errInjected = errors.New("injected EIO")

func (f *faultFs) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	file, err := f.Fs.OpenFile(path, flag, perm)
	if err == nil && strings.HasSuffix(path, "wal.log.tmp") {
		return faultFile{file, f}, nil
	}
	return file, err
}

func (f *faultFs) Rename(oldpath, newpath string) error {
	if f.failAt == "rename" {
		return errInjected
	}
	if filepath.Base(newpath) == "wal.log" {
		f.rewrites++
	}
	return f.Fs.Rename(oldpath, newpath)
}

func (f *faultFs) SyncDir(dir string) error {
	if f.failAt == "syncdir" {
		return errInjected
	}
	return f.Fs.SyncDir(dir)
}

// faultFile is the temporary file of a rewrite.
type faultFile struct {
	File
	fs *faultFs
}

func (f faultFile) Write(p []byte) (int, error) {
	if f.fs.failAt == "write" {
		return 0, errInjected
	}
	return f.File.Write(p)
}

func (f faultFile) Sync() error {
	if f.fs.failAt == "fsync" {
		return errInjected
	}
	return f.File.Sync()
}

// TestRewriteFailsAtEachStep fails a compaction at each of its steps. The put
// staged before the compaction is synced by the compaction's own barrier
// (syncStaged) before the rewrite starts, so every step finds it durable. Up
// to and including the rename the log is exactly as it was after that
// barrier: the temporary file is gone, the next Sync succeeds, and a reopen
// recovers everything. From the directory sync on the log is poisoned, as by
// a failed barrier — the new log is in place but may not be durably so, and
// nothing more may be acknowledged on it.
func TestRewriteFailsAtEachStep(t *testing.T) {
	for _, step := range []string{"write", "fsync", "rename", "syncdir"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			fsys := &faultFs{Fs: OS}
			db, err := OpenFs(fsys, dir, 1, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.AppendHello(1, 0); err != nil {
				t.Fatal(err)
			}
			db.ShardBacking(0).Persist("staged", 7) // in memory only when the compaction starts

			fsys.failAt = step
			if err := db.Compact(); !errors.Is(err, errInjected) {
				t.Fatalf("Compact = %v, want the injected error", err)
			}
			fsys.failAt = ""
			err = db.Sync()
			if step == "syncdir" {
				if !errors.Is(err, errInjected) {
					t.Fatalf("Sync after a failed directory sync = %v, want the log poisoned by the injected error", err)
				}
				if err := db.Compact(); !errors.Is(err, errInjected) {
					t.Fatalf("Compact on a poisoned log = %v, want the injected error", err)
				}
			} else if err != nil {
				t.Fatalf("Sync after a compaction that failed at its %s: %v", step, err)
			}
			db.Close()

			tree := readTree(t, dir)
			if _, left := tree["wal.log.tmp"]; left {
				t.Fatal("the failed compaction left wal.log.tmp behind")
			}
			db2, err := Open(dir, 1, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			got := map[string]int64{}
			db2.RangeShard(0, func(k string, v int64) { got[k] = v })
			if ss := db2.Sessions(); got["staged"] != 7 || len(ss) != 1 || ss[0].SID != 1 {
				t.Fatalf("recovered %v and sessions %v, want staged=7 and session 1", got, ss)
			}
		})
	}
}

// ackBootstrap acks sub's bootstrap barrier, which engages its commit
// gating. Call it right after Subscribe: until the next commit, ReplStatus's
// seq is that barrier.
func ackBootstrap(db *DB, sub *ReplSub) {
	seq, _, _ := db.ReplStatus()
	sub.Ack(seq)
}

// TestFailedCompactionFoldsNothingUndurable: a compaction makes the put staged
// before it durable before it folds it, so a rewrite that fails before its
// rename leaves mirrors that are what recovery of the disk rebuilds, and a
// leading node's view stage holds the put once: the next epoch finds nothing
// staged to fold again.
func TestFailedCompactionFoldsNothingUndurable(t *testing.T) {
	for _, step := range []string{"write", "fsync", "rename"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			fsys := &faultFs{Fs: OS}
			db, err := OpenFs(fsys, dir, 1, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			db.Lead()
			sub := db.Subscribe(0)
			defer sub.Close()
			ackBootstrap(db, sub) // a gating standby: an epoch is held until it acks
			db.ShardBacking(0).Persist("staged", 7)

			fsys.failAt = step
			if err := db.Compact(); !errors.Is(err, errInjected) {
				t.Fatalf("Compact = %v, want the injected error", err)
			}
			fsys.failAt = ""
			image := t.TempDir()
			copyTree(t, dir, image)
			rec, err := Open(image, 1, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			want := rec.StateHash()
			rec.Close()
			if got := db.StateHash(); got != want {
				t.Fatal("the live hash differs from the hash of what recovery of the disk rebuilds")
			}

			done := make(chan error, 1)
			go func() { done <- db.Sync() }()
			var staged []int64
			for held := false; !held; runtime.Gosched() {
				select {
				case err := <-done:
					t.Fatalf("Sync returned %v before its epoch was held", err)
				default:
				}
				db.view.mu.Lock()
				if held = len(db.view.held) > 0; held {
					for _, p := range db.view.stage[:db.view.held[0].end] {
						staged = append(staged, p.val)
					}
				}
				db.view.mu.Unlock()
			}
			sub.Ack(1 << 60)
			if err := <-done; err != nil {
				t.Fatalf("Sync after a compaction that failed at its %s: %v", step, err)
			}
			if !slices.Equal(staged, []int64{7}) {
				t.Fatalf("the held epoch stages %v, want the put once: [7]", staged)
			}
		})
	}
}

// TestFailedCompactionKeepsItsEpoch: a compaction runs once its epoch is
// durable, folded and streamed, so one that fails is logged and the epoch
// commits all the same: Sync returns nil and the view of a node gated by a
// standby publishes the put. The log stays whole, and the next full epoch
// compacts.
func TestFailedCompactionKeepsItsEpoch(t *testing.T) {
	lines := captureLog(t)
	fsys := &faultFs{Fs: OS}
	db, err := OpenFs(fsys, t.TempDir(), 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Lead()
	sub := db.Subscribe(0)
	defer sub.Close()
	ackBootstrap(db, sub) // gating from here on
	sub.Ack(1 << 60)      // past any barrier this test issues
	db.SetCompactThreshold(1)

	fsys.failAt = "write"
	db.ShardBacking(0).Persist("k", 1)
	if err := db.Sync(); err != nil {
		t.Fatalf("Sync with a failing compaction: %v", err)
	}
	if v, ok := db.ViewGet(0, "k"); !ok || v != 1 {
		t.Fatalf("view k=%d (ok=%v), want 1", v, ok)
	}
	var warned []map[string]any
	for _, l := range lines() {
		if l["level"] == "WARN" {
			warned = append(warned, l)
		}
	}
	if len(warned) != 1 || !strings.Contains(warned[0]["cause"].(string), errInjected.Error()) {
		t.Fatalf("WARN lines %v, want one naming the injected cause", warned)
	}

	fsys.failAt = ""
	db.ShardBacking(0).Persist("k", 2)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if fsys.rewrites != 1 {
		t.Fatalf("%d rewrites once the fault is gone, want the next full epoch to compact", fsys.rewrites)
	}
}

// TestCompactThresholdCountsAppendedBytes: the threshold counts bytes
// appended since the last rewrite, so a state larger than the threshold
// compacts once per threshold of appended bytes — not at every anchor, which
// is what comparing the size of a log that is never smaller than the state
// would do. A log not rewritten since its open counts whole: a node that
// restarts before it has appended a threshold's worth still compacts, once,
// so a crash loop cannot grow the log without bound.
func TestCompactThresholdCountsAppendedBytes(t *testing.T) {
	dir := t.TempDir()
	fsys := &faultFs{Fs: OS}
	db, err := OpenFs(fsys, dir, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		db.ShardBacking(0).Persist(fmt.Sprintf("k%02d", i), 1)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	rec := int64(len(frame(encodePutAt(nil, 0, "k00", 1, stamp{}))))
	if st, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || st.Size() < 20*rec {
		t.Fatalf("the compacted log: %v, %v; want a state of at least %d bytes", st, err, 20*rec)
	}
	db.SetCompactThreshold(10 * rec)
	fsys.rewrites = 0
	anchors := func(db *DB, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			db.ShardBacking(0).Persist("k00", int64(i))
			if err := db.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	anchors(db, 100)
	if fsys.rewrites != 10 {
		t.Fatalf("100 anchors of one record each at a threshold of 10 records compacted %d times, want 10", fsys.rewrites)
	}
	anchors(db, 5)
	db.Close()

	// Five records behind a state of 64: under the threshold as appended
	// bytes, over it as a log nobody has rewritten since the open.
	db, err = OpenFs(fsys, dir, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetCompactThreshold(10 * rec)
	anchors(db, 1)
	if fsys.rewrites != 11 {
		t.Fatalf("the first anchor after a reopen left the recovered log alone (%d rewrites, want 11)", fsys.rewrites)
	}
	anchors(db, 9)
	if fsys.rewrites != 11 {
		t.Fatalf("9 records appended since that rewrite compacted (%d rewrites, want 11 still)", fsys.rewrites)
	}
	anchors(db, 1)
	if fsys.rewrites != 12 {
		t.Fatalf("the 10th record appended since that rewrite did not compact (%d rewrites, want 12)", fsys.rewrites)
	}
}

// TestFullLogCompactsOnce: an anchor finds the log full under the sessions
// lock and compacts after releasing it, so another compaction — an explicit
// Compact — can rewrite the log in between. The trigger is tested again
// under the compaction's locks, so the second does not rewrite the whole
// state a second time for nothing.
func TestFullLogCompactsOnce(t *testing.T) {
	fsys := &faultFs{Fs: OS}
	db, err := OpenFs(fsys, t.TempDir(), 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.ShardBacking(0).Persist("k", 1)
	const threshold = 8 // bytes; the one record above is past it
	for i, want := range []int{1, 1} {
		if err := db.compact(threshold); err != nil {
			t.Fatal(err)
		}
		if fsys.rewrites != want {
			t.Fatalf("after anchor %d found the log full: %d rewrites, want %d", i+1, fsys.rewrites, want)
		}
	}
}

// TestOpenRemovesLeftoverTemporaries: a crash mid-compaction leaves a
// wal.log.tmp as large as the state, and one mid-promotion a MANIFEST.tmp;
// the next open removes both and recovers from the log as if they had never
// been there.
func TestOpenRemovesLeftoverTemporaries(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 1, 1, 4)
	db.ShardBacking(0).Persist("k", 1)
	db.Sync()
	db.Close()
	for _, name := range []string{"wal.log.tmp", "MANIFEST.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), frame(encodePutAt(nil, 0, "k", 9, stamp{})), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := shardState(t, dir, 1, 1, 0); !reflect.DeepEqual(got, map[string]int64{"k": 1}) {
		t.Fatalf("recovered %v", got)
	}
	tree := readTree(t, dir)
	for _, name := range []string{"wal.log.tmp", "MANIFEST.tmp"} {
		if _, left := tree[name]; left {
			t.Errorf("Open left %s in the data directory", name)
		}
	}
}

func TestSessionWindowEvictionAndEnd(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 1, 2, 3) // window of 3
	db.AppendHello(1, 0)
	db.AppendHello(2, 1)
	for req := uint64(1); req <= 6; req++ {
		db.CommitOutcome(1, req, []byte{byte(req)})
	}
	db.AppendEnd(2)
	db.Close()

	db2, _ := Open(dir, 1, 2, 3)
	defer db2.Close()
	ss := db2.Sessions()
	if len(ss) != 1 || ss[0].SID != 1 {
		t.Fatalf("recovered sessions %v, want only sid 1", ss)
	}
	if ss[0].MaxID != 6 || len(ss[0].Window) != 3 {
		t.Fatalf("window maxID=%d len=%d, want 6 and 3", ss[0].MaxID, len(ss[0].Window))
	}
	for req := uint64(4); req <= 6; req++ {
		if string(ss[0].Reply(req)) != string([]byte{byte(req)}) {
			t.Fatalf("window[%d] = %q", req, ss[0].Reply(req))
		}
	}
	if db2.NextSID() != 2 {
		t.Fatalf("NextSID = %d, want 2 (high-water survives the ended session)", db2.NextSID())
	}
}

// TestSessionsCompactionKeepsNextSID ends every session, compacts, and
// checks the high-water mark still prevents session-ID reuse.
func TestSessionsCompactionKeepsNextSID(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 1, 2, 4)
	db.AppendHello(7, 0)
	db.AppendEnd(7)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2, _ := Open(dir, 1, 2, 4)
	defer db2.Close()
	if got := db2.NextSID(); got != 7 {
		t.Fatalf("NextSID after compaction = %d, want 7", got)
	}
}

func TestNoteSIDRaisesHighWater(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 1, 2, 4)
	db.AppendHello(1, 0)
	if err := db.NoteSID(2); err != nil { // observer ID, no session record
		t.Fatal(err)
	}
	if err := db.NoteSID(1); err != nil { // never lowers
		t.Fatal(err)
	}
	db.Close()
	db2, _ := Open(dir, 1, 2, 4)
	defer db2.Close()
	if got := db2.NextSID(); got != 2 {
		t.Fatalf("NextSID = %d, want 2", got)
	}
	if n := len(db2.Sessions()); n != 1 {
		t.Fatalf("recovered %d sessions, want 1 (NoteSID records no session)", n)
	}
}

func TestOpenRefusesSecondProcess(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := Open(dir, 1, 1, 4); err == nil {
		t.Fatal("second concurrent Open of the same data dir succeeded; want flock refusal")
	}
}

// TestOpenReusableAfterClose pins that the lock dies with the DB, so a
// clean close (or a killed process) never wedges the next open.
func TestOpenReusableAfterClose(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 1, 1, 4)
	db.Close()
	db2, err := Open(dir, 1, 1, 4)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	db2.Close()
}

// failOpenFs fails every OpenFile after the first left and counts them all.
type failOpenFs struct {
	Fs
	left, calls int
}

func (f *failOpenFs) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	if f.calls++; f.calls > f.left {
		return nil, errInjected
	}
	return f.Fs.OpenFile(path, flag, perm)
}

// TestOpenFailsCleanlyAtEveryOpenFile fails an open at each of its OpenFile
// calls in turn, first of a fresh directory and then of one with a log. The
// injection points are counted off a clean open rather than written down, so
// the test follows the layout: a fresh directory is the MANIFEST's temporary
// file, the probe for wal.log and its creation; a reopen is wal.log alone.
// Every failed open returns the injected error and gives the lock back, and
// whatever it left behind opens to the state that was there before it.
func TestOpenFailsCleanlyAtEveryOpenFile(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seed  bool
		opens int
	}{{"fresh", false, 3}, {"reopen", true, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			prepare := func() (dir string, want string) {
				dir = t.TempDir()
				if !tc.seed {
					return dir, ""
				}
				db, err := Open(dir, 2, 2, 4)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				db.ShardBacking(1).Persist("k", 7)
				if err := db.AppendHello(1, 0); err != nil {
					t.Fatal(err)
				}
				return dir, db.StateHash()
			}
			dir, _ := prepare()
			clean := &failOpenFs{Fs: OS, left: 1 << 30}
			db, err := OpenFs(clean, dir, 2, 2, 4)
			if err != nil {
				t.Fatal(err)
			}
			db.Close()
			if clean.calls != tc.opens {
				t.Fatalf("a clean open made %d OpenFile calls, want %d", clean.calls, tc.opens)
			}
			for k := 0; k < clean.calls; k++ {
				dir, want := prepare()
				if _, err := OpenFs(&failOpenFs{Fs: OS, left: k}, dir, 2, 2, 4); !errors.Is(err, errInjected) {
					t.Fatalf("open with OpenFile call %d failing: %v, want the injected error", k+1, err)
				}
				db, err := Open(dir, 2, 2, 4)
				if err != nil {
					t.Fatalf("open after one that failed at OpenFile call %d: %v", k+1, err)
				}
				if tc.seed && db.StateHash() != want {
					t.Errorf("state changed by an open that failed at OpenFile call %d", k+1)
				}
				db.Close()
				if names := slices.Sorted(maps.Keys(readTree(t, dir))); !slices.Equal(names, []string{"LOCK", "MANIFEST", "wal.log"}) {
					t.Errorf("directory after the retry is %v", names)
				}
			}
		})
	}
}

func TestManifestGeometryMismatch(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, 4, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := Open(dir, 2, 8, 4); err == nil {
		t.Fatal("reopen with different shard count succeeded; want refusal")
	}
	if _, err := Open(dir, 4, 4, 4); err == nil {
		t.Fatal("reopen with different proc count succeeded; want refusal")
	}
	db2, err := Open(dir, 4, 8, 4)
	if err != nil {
		t.Fatalf("reopen with original geometry: %v", err)
	}
	db2.Close()
}

// TestCommitOutcomeOrdering checks the observable half of the durability
// contract: after CommitOutcome returns, both the journaled mutations and
// the outcome record survive a reopen.
func TestCommitOutcomeOrdering(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 2, 2, 4)
	db.AppendHello(1, 0)
	db.ShardBacking(0).Persist("k", 42)
	db.ShardBacking(1).Persist("j", 43)
	if err := db.CommitOutcome(1, 5, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	db.Close()

	if got := shardState(t, dir, 2, 2, 0); got["k"] != 42 {
		t.Fatalf("shard 0 lost the pre-outcome mutation: %v", got)
	}
	if got := shardState(t, dir, 2, 2, 1); got["j"] != 43 {
		t.Fatalf("shard 1 lost the pre-outcome mutation: %v", got)
	}
	db2, _ := Open(dir, 2, 2, 4)
	defer db2.Close()
	ss := db2.Sessions()
	if len(ss) != 1 || string(ss[0].Reply(5)) != "ok" {
		t.Fatalf("outcome window lost: %v", ss)
	}
}
