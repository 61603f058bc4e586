package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"detectable/internal/runtime"
)

// frame builds one valid log frame for seeding.
func frame(payload []byte) []byte {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// validSessionsLog returns the framed session records of a well-formed
// write-ahead log: hello, outcome, next-sid, end.
func validSessionsLog() []byte {
	var out []byte
	rec := append([]byte{recHello}, binary.BigEndian.AppendUint64(nil, 1)...)
	rec = binary.BigEndian.AppendUint64(rec, 0)
	out = append(out, frame(rec)...)
	out = append(out, frame(appendOutcomeRec(nil, 1, 1, []byte("k=1")))...)
	out = append(out, frame(append([]byte{recNextSID}, binary.BigEndian.AppendUint64(nil, 9)...))...)
	out = append(out, frame(append([]byte{recEnd}, binary.BigEndian.AppendUint64(nil, 1)...))...)
	return out
}

// FuzzOpenLog feeds arbitrary bytes to the log opener: it must never
// panic, must recover a valid record prefix (truncating any garbage
// tail), and reopening what it left behind must yield byte-identical
// records — recovery of a recovered log is a fixpoint.
func FuzzOpenLog(f *testing.F) {
	valid := validSessionsLog()
	f.Add([]byte{})
	f.Add(valid)
	// Flipped CRC byte in the second frame.
	flipped := append([]byte(nil), valid...)
	flipped[FrameHeader+len(flipped[FrameHeader:])/4] ^= 0xff
	f.Add(flipped)
	// Torn tail mid-frame.
	f.Add(valid[:len(valid)-3])
	// Impossible length prefix.
	f.Add(binary.BigEndian.AppendUint32(nil, uint32(MaxRecord+1)))
	// Length that overruns the file.
	f.Add(frame([]byte("x"))[:6])

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var recs [][]byte
		l, err := OpenLog(path, func(rec []byte) error {
			recs = append(recs, append([]byte(nil), rec...))
			return nil
		})
		if err != nil {
			return // structured rejection is fine; panics are the bug
		}
		l.Close()

		// Fixpoint: the truncated-on-open log replays identically.
		var recs2 [][]byte
		l2, err := OpenLog(path, func(rec []byte) error {
			recs2 = append(recs2, append([]byte(nil), rec...))
			return nil
		})
		if err != nil {
			t.Fatalf("reopen of a recovered log failed: %v", err)
		}
		l2.Close()
		if len(recs) != len(recs2) {
			t.Fatalf("recovered %d records, reopen recovered %d", len(recs), len(recs2))
		}
		for i := range recs {
			if !bytes.Equal(recs[i], recs2[i]) {
				t.Fatalf("record %d differs across reopen: %x vs %x", i, recs[i], recs2[i])
			}
		}
	})
}

// FuzzOpenDB plants fuzz bytes behind the compacted write-ahead log of a
// valid data directory: Open must never panic — it either recovers, truncating at the first torn
// or CRC-bad frame (and then the recovered state is stable: an immediate
// reopen yields the same StateHash), or refuses with an error.
func FuzzOpenDB(f *testing.F) {
	// The seed head holds session 1 on process 0 and no hello for process
	// 1; a stamp is request 1 of process 0 unless a seed says otherwise.
	putAt := func(shard int, key string, val int64, s stamp) []byte {
		return frame(encodePutAt(nil, shard, key, val, s))
	}
	put := stamp{reqID: 1, Stamp: Stamp{Status: int(runtime.StatusOK)}}
	entry := func(i int) stamp {
		return stamp{reqID: 2, Stamp: Stamp{Status: int(runtime.StatusRecovered), Crashes: 1, Entry: i, Batch: 3}}
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	f.Add([]byte{})
	f.Add(cat(putAt(0, "k", 7, put), validSessionsLog()))
	mut := putAt(0, "k", 7, put)
	mut[len(mut)-1] ^= 0x01
	f.Add(cat(mut, validSessionsLog()[:9]))
	f.Add(cat(binary.BigEndian.AppendUint32(nil, 0xffffffff), frame([]byte{recHello})))
	// A well-framed put-at for a shard the store does not have.
	f.Add(cat(putAt(0, "k", 7, put), putAt(2, "k", 8, stamp{})))
	// Session records between two puts: one scan dispatches by kind.
	f.Add(cat(putAt(0, "k", 7, put), validSessionsLog(), putAt(1, "j", 9, stamp{})))
	// A torn epoch tail: an MPUT's puts, then its outcome cut short.
	epoch := cat(putAt(0, "k", 1, entry(0)), putAt(1, "j", 1, entry(1)), frame(appendOutcomeRec(nil, 1, 2, []byte("k=1"))))
	f.Add(epoch[:len(epoch)-7])
	// A stamped PUT's epoch: its put-at record is its verdict.
	f.Add(putAt(1, "j", 3, put))
	// A stamped MPUT whose outcome record was torn off whole: entries 0 and
	// 2 of 3 survived, entry 1 failed.
	f.Add(cat(putAt(0, "k", 4, entry(0)), putAt(1, "j", 4, entry(2))))
	// A stamp of a process no hello ahead of it leased.
	f.Add(putAt(0, "k", 5, stamp{reqID: 1, Stamp: Stamp{PID: 1, Status: int(runtime.StatusOK)}}))

	f.Fuzz(func(t *testing.T, walBytes []byte) {
		dir := t.TempDir()
		db, err := Open(dir, 2, 2, 16)
		if err != nil {
			t.Fatal(err)
		}
		db.ShardBacking(0).Persist("seed", 1)
		if err := db.AppendHello(1, 0); err != nil {
			t.Fatal(err)
		}
		if err := db.Compact(); err != nil { // the seed state is the log's compacted head
			t.Fatal(err)
		}
		db.Close()
		wal, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wal.Write(walBytes); err != nil {
			t.Fatal(err)
		}
		wal.Close()

		db1, err := Open(dir, 2, 2, 16)
		if err != nil {
			return // refusing corrupt input is fine
		}
		h1 := db1.StateHash()
		db1.Close()
		db2, err := Open(dir, 2, 2, 16)
		if err != nil {
			t.Fatalf("reopen after successful recovery failed: %v", err)
		}
		h2 := db2.StateHash()
		db2.Close()
		if h1 != h2 {
			t.Fatalf("recovered state not stable across reopen: %s then %s", h1, h2)
		}
	})
}
