package durable

// What rests on a shard's key table (internal/keytab, which has the table's
// own suite): the bytes and objects a key costs on either role, the
// allocation-free apply path, the release of a bootstrap's stage,
// and the read view's whole-epoch publication (view.go).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func tableKeys(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("bench-%d", i)
	}
	return names
}

// liveGrowth reports what build leaves on the heap: live bytes (HeapAlloc)
// and live objects (Mallocs − Frees), each read after a full collection —
// internal/kv's space_test.go has the same helper for a register.
func liveGrowth(build func() any) (bytes, objects int64) {
	var before, after goruntime.MemStats
	warmThreads()
	goruntime.GC()
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	keep := build()
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	goruntime.KeepAlive(keep)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc),
		int64(after.Mallocs-after.Frees) - int64(before.Mallocs-before.Frees)
}

// warmThreads runs a goroutine on every P at once, so the runtime has an OS
// thread for each before liveGrowth's first reading. A thread the runtime
// starts inside the window leaves its m and two g's on the heap, ≈ 5.3 KB:
// 1.4 B a key in TestSpacePinBytesPerKey, which read 50.5–56 B at
// GOMAXPROCS 8 as 0 to 4 threads happened to start during build.
func warmThreads() {
	n := int32(goruntime.GOMAXPROCS(0))
	var running atomic.Int32
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			running.Add(1)
			for running.Load() < n {
			}
		}()
	}
	wg.Wait()
}

// openQuiet opens a DB in a temporary directory whose fsyncs are no-ops and
// which never compacts: for tests that count bytes, allocations or
// interleavings, not durability.
func openQuiet(t *testing.T, shards int) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), shards, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	hookSync(db.wal, func(File) error { return nil })
	db.SetCompactThreshold(math.MaxInt64)
	return db
}

// journalAll journals names[i] := i+1 round-robin over db's shards, with a
// barrier every 128 puts so the log's two staging buffers stay small.
func journalAll(t *testing.T, db *DB, names []string) {
	t.Helper()
	for i, k := range names {
		db.journalPut(i%len(db.shards), k, int64(i+1), stamp{})
		if i%128 == 127 {
			if err := db.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// streamOf returns the messages of a closed subscription.
func streamOf(t *testing.T, sub *ReplSub) (msgs [][]byte) {
	t.Helper()
	for {
		chunk, err := sub.Next()
		if errors.Is(err, io.EOF) {
			return msgs
		}
		if err != nil {
			t.Fatal(err)
		}
		for len(chunk) > 0 {
			n := 4 + int(binary.BigEndian.Uint32(chunk))
			msgs = append(msgs, append([]byte(nil), chunk[4:n]...))
			chunk = chunk[n:]
		}
	}
}

// TestSpacePinBytesPerKey: at the benchmark's geometry — 4096 keys over 4
// shards — a key costs a durable node at most 56 B and 0.2 objects of live
// heap, on the primary (fed by journalPut) and on the standby (fed the
// primary's live stream, view published) alike: a 32 B pointer-free entry
// in a chunk of 63, its name's ten bytes in a 1 KiB block (10.5 B with the
// last block's unused end), and 8 B of index — 2048 slots for a shard's 1024
// keys; 5.3 B with the index three quarters full, 10.7 B right after it
// doubled. It reads 50.5 B and 0.02 objects; 65 B and 1.02 when the entry held
// a string header and the name was a clone of its own; 77 B and 1.5 objects
// on the primary and 145 B and 2.5 on the standby when the mirror was a map
// of boxed values and the view a second map. The first 256 keys bring the
// log's and the stage's buffers to their working size and are not measured.
func TestSpacePinBytesPerKey(t *testing.T) {
	const shards, warmed, keys = 4, 256, 4096 - 256
	all := tableKeys(warmed + keys)
	warm, names := all[:warmed], all[warmed:]
	check := func(t *testing.T, build func() any) {
		t.Helper()
		bytes, objects := liveGrowth(build)
		b, o := float64(bytes)/keys, float64(objects)/keys
		t.Logf("%.1f B and %.2f objects per key", b, o)
		if b > 56 {
			t.Errorf("a key holds %.1f B of live heap, want ≤ 56", b)
		}
		if o > 0.2 {
			t.Errorf("a key holds %.2f live objects, want ≤ 0.2", o)
		}
	}

	t.Run("primary", func(t *testing.T) {
		db := openQuiet(t, shards)
		journalAll(t, db, warm)
		check(t, func() any { journalAll(t, db, names); return db })
		for i, k := range names {
			if v, ok := db.MirrorGet(i%shards, k); !ok || v != int64(i+1) {
				t.Fatalf("mirror holds %s=%d (ok=%v), want %d", k, v, ok, i+1)
			}
		}
	})

	t.Run("standby", func(t *testing.T) {
		pdb := openQuiet(t, shards)
		sub := pdb.Subscribe(0)
		journalAll(t, pdb, warm)
		journalAll(t, pdb, names)
		sub.Close()
		seq, _, _ := pdb.ReplStatus()
		msgs := streamOf(t, sub)
		first := slices.IndexFunc(msgs, func(m []byte) bool {
			return m[0] == ReplLog && bytes.Contains(m, []byte(names[0]))
		})

		bdb := openQuiet(t, shards)
		rp := bdb.NewReplica()
		apply := func(msgs [][]byte) {
			for i, m := range msgs {
				if _, _, err := rp.Apply(m); err != nil {
					t.Fatalf("Apply msg %d (kind 0x%02x): %v", i, m[0], err)
				}
			}
		}
		apply(msgs[:first]) // the empty bootstrap and the warm-up epochs
		check(t, func() any { apply(msgs[first:]); return bdb })
		goruntime.KeepAlive(msgs) // freed before the second reading, the stream would be subtracted from it
		if got := bdb.ViewSeq(); got != seq {
			t.Fatalf("applied mark %d, want the primary's committed %d", got, seq)
		}
		for i, k := range names {
			if v, ok := bdb.ViewGet(i%shards, k); !ok || v != int64(i+1) {
				t.Fatalf("view holds %s=%d (ok=%v), want %d", k, v, ok, i+1)
			}
		}
	})
	goruntime.KeepAlive(all) // likewise: 16 B and one object per key
}

// epochOfOne returns a function that applies one epoch to rp — a put of a
// key in shard 1, its barrier, its commit mark, under sequence numbers from
// first — reusing its three messages, so that whatever allocates is Apply.
func epochOfOne(t *testing.T, rp *Replica, key string, first uint64) (epoch func(), seq *uint64) {
	seq = new(uint64)
	*seq = first - 1
	put := appendFrame([]byte{ReplLog}, encodePutAt(nil, 1, key, 0, stamp{}))
	barrier, commit := []byte{ReplBarrier, 8: 0}, []byte{ReplCommit, 8: 0}
	return func() {
		*seq++
		binary.BigEndian.PutUint64(put[len(put)-8:], *seq)
		sealFrame(put, 1)
		binary.BigEndian.PutUint64(barrier[1:], *seq)
		binary.BigEndian.PutUint64(commit[1:], *seq)
		for _, m := range [][]byte{put, barrier, commit} {
			if _, _, err := rp.Apply(m); err != nil {
				t.Fatal(err)
			}
		}
	}, seq
}

// TestAllocPinReplicaApply: a streamed put of a key the standby already has,
// its barrier and its commit mark apply, anchor and publish without one
// allocation — the key is decoded in place and resolved to its entry, the
// stage holds (shard, entry number, value). Decoding used to copy the key
// out of every record.
func TestAllocPinReplicaApply(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	db := openQuiet(t, 2)
	epoch, seq := epochOfOne(t, db.NewReplica(), "key", 1)
	for i := 0; i < 8; i++ { // insert the key, grow every buffer
		epoch()
	}
	if got := testing.AllocsPerRun(200, epoch); got != 0 {
		t.Fatalf("applying a put of an existing key, its barrier and its commit mark: %.1f allocs, want 0", got)
	}
	if v, ok := db.ViewGet(1, "key"); !ok || uint64(v) != *seq || db.ViewSeq() != *seq {
		t.Fatalf("view holds key=%d (ok=%v) at mark %d, want %d at %d", v, ok, db.ViewSeq(), *seq, *seq)
	}
}

// TestSnapshotStageReleased: a standby that bootstraps stages one put per key
// of the store until the bootstrap's commit mark publishes them, and gives
// that stage back then: bootstrapped from a 4096-key state it
// holds, once published, no more than a chunk (2 KiB) above what a standby
// fed the same keys live holds — before, 64 KiB more, until the Replica was
// dropped — and applies the epochs that follow without allocating.
func TestSnapshotStageReleased(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const shards, keys = 4, 4096
	names := tableKeys(keys)
	pdb := openQuiet(t, shards)
	sub := pdb.Subscribe(0)
	journalAll(t, pdb, names)
	if err := pdb.Sync(); err != nil {
		t.Fatal(err)
	}
	sub.Close()
	live := streamOf(t, sub) // an empty bootstrap, then every key in epochs of 128
	liveSeq, _, _ := pdb.ReplStatus()
	sub = pdb.Subscribe(0)
	sub.Close()
	snap := streamOf(t, sub) // every key between SnapBegin and its barrier, one commit mark
	if n := len(snap); n < 4 || snap[0][0] != ReplSnapBegin || snap[1][0] != ReplLog || snap[n-2][0] != ReplBarrier || snap[n-1][0] != ReplCommit {
		t.Fatalf("the bootstrap stream is %d messages, not SnapBegin, records, barrier, commit mark", n)
	}
	seq, _, _ := pdb.ReplStatus()

	held := func(msgs [][]byte, seq uint64) (int64, *Replica) {
		db := openQuiet(t, shards)
		var rp *Replica
		bytes, _ := liveGrowth(func() any {
			rp = db.NewReplica()
			for i, m := range msgs {
				if _, _, err := rp.Apply(m); err != nil {
					t.Fatalf("Apply msg %d (kind 0x%02x): %v", i, m[0], err)
				}
			}
			return rp
		})
		if got := db.ViewSeq(); got != seq {
			t.Fatalf("applied mark %d, want the primary's committed %d", got, seq)
		}
		return bytes, rp
	}
	fedLive, _ := held(live, liveSeq)
	bootstrapped, rp := held(snap, seq)
	goruntime.KeepAlive(live)
	goruntime.KeepAlive(snap)
	t.Logf("fed live %d B, bootstrapped %d B; the bootstrap's stage was %d B", fedLive, bootstrapped, keys*16)
	if bootstrapped > fedLive+2048 {
		t.Errorf("a bootstrapped standby holds %d B, one fed the same keys live %d B: more than a chunk apart", bootstrapped, fedLive)
	}
	if cap(rp.db.view.stage) > 128 {
		t.Errorf("the stage keeps room for %d puts after the bootstrap was published", cap(rp.db.view.stage))
	}

	epoch, _ := epochOfOne(t, rp, names[1], seq+1)
	for i := 0; i < 8; i++ { // grow the stage back to what an epoch of one needs
		epoch()
	}
	if got := testing.AllocsPerRun(200, epoch); got != 0 {
		t.Fatalf("applying an epoch after the stage was released: %.1f allocs, want 0", got)
	}
}

// TestViewPublishesWholeEpochs: readers spin on ViewGet over two keys that
// every epoch writes together (with a run of other puts between the two, in
// alternating order, so a torn publication has room to show) while the
// applier publishes thousands of epochs and now and then resets the view.
// Epoch e writes the value e under barrier sequence e. A reader must never
// see one key from epoch e and then the other from an earlier one, never
// observe ViewSeq() ≥ e and then miss a put of e, and between a reset and
// the next publication never see anything but misses at mark zero.
func TestViewPublishesWholeEpochs(t *testing.T) {
	const epochs, resetEvery, filler = 3000, 500, 16
	db := openQuiet(t, 2)
	rp := db.NewReplica()

	// phase counts up: ≡ 0 (mod 3) the applier publishes and does not reset,
	// ≡ 1 a reset is under way, ≡ 2 the reset has returned and nothing has
	// been published since. A reader trusts a check only if phase did not
	// move across it.
	var phase atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				first, second := "a", "b"
				if i%2 == 1 {
					first, second = second, first
				}
				p := phase.Load()
				seq := db.ViewSeq()
				v1, ok1 := db.ViewGet(int(first[0]-'a'), first)
				v2, ok2 := db.ViewGet(int(second[0]-'a'), second)
				if phase.Load() != p {
					continue
				}
				switch {
				case p%3 == 0 && ok1 && (!ok2 || v2 < v1):
					t.Errorf("torn epoch: %s=%d, then %s=%d (ok=%v)", first, v1, second, v2, ok2)
					return
				case p%3 == 0 && seq > 0 && (!ok1 || uint64(v1) < seq):
					t.Errorf("applied mark %d, then %s=%d (ok=%v)", seq, first, v1, ok1)
					return
				case p%3 == 2 && (seq != 0 || ok1 || ok2):
					t.Errorf("after a reset: mark %d, %s=%d (ok=%v), %s=%d (ok=%v)", seq, first, v1, ok1, second, v2, ok2)
					return
				}
			}
		}()
	}

	var msg, rec []byte
	put := func(key string, val int64) {
		rec = encodePutAt(rec[:0], int(key[0]-'a'), key, val, stamp{})
		msg = appendFrame(append(msg[:0], ReplLog), rec)
		if _, _, err := rp.Apply(msg); err != nil {
			t.Fatal(err)
		}
	}
	for e := int64(1); e <= epochs && !t.Failed(); e++ {
		first, second := "a", "b"
		if e%2 == 1 {
			first, second = second, first
		}
		put(first, e)
		for f := 0; f < filler; f++ {
			put(string(rune('a'+f%2))+"-filler-"+string(rune('a'+f)), e)
		}
		put(second, e)
		for _, kind := range []byte{ReplBarrier, ReplCommit} {
			if _, _, err := rp.Apply(seqMsg(kind, uint64(e))); err != nil {
				t.Fatal(err)
			}
		}
		if e%resetEvery == 0 {
			phase.Add(1)
			db.ResetView()
			phase.Add(1)
			time.Sleep(time.Millisecond) // let the readers look at the empty view
			phase.Add(1)
		}
	}
}

// TestRefusedMessageLeavesNoKey: a LOG message is checked whole before any
// of it is kept, so one refused part-way — a put of a new key, then a put
// outside the value domain — leaves the key table as it found it: the
// first put's key is resolved only when an epoch that carries it is folded.
func TestRefusedMessageLeavesNoKey(t *testing.T) {
	db, err := Open(t.TempDir(), 2, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	msg := appendFrame([]byte{ReplLog}, encodePutAt(nil, 1, "leak", 1, stamp{}))
	msg = appendFrame(msg, encodePutAt(nil, 1, "wide", 1<<62, stamp{}))
	if _, _, err := db.NewReplica().Apply(msg); err == nil {
		t.Fatal("a message holding a value outside the register domain was accepted")
	}
	if n, e := db.shards[1].tab.Lookup("leak"); e != nil {
		t.Fatalf("a refused message left key %q in the table as entry %d", "leak", n)
	}
}
