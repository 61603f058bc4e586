package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestLogAppendRefusesEmpty: an empty frame reads as the end of the
// records, so Append must not write one.
func TestLogAppendRefusesEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte{}); err == nil {
		t.Fatal("Append of an empty payload succeeded")
	}
	if err := l.Append([]byte("gamma")); err != nil {
		t.Fatalf("Append after a refused empty payload: %v", err)
	}
	l.Close()
	if got := collect(t, path); len(got) != 2 || string(got[1]) != "gamma" {
		t.Fatalf("replayed %q, want alpha and gamma", got)
	}
}

// TestOpenOverZeroTail appends a page of zeros behind the last record —
// what a later page of an append that reached the disk first leaves — and
// reopens: the zeros are a torn tail, not a run of empty records.
func TestOpenOverZeroTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, 1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AppendHello(1, 0); err != nil {
		t.Fatal(err)
	}
	db.Close()
	wal := filepath.Join(dir, "wal.log")
	before, _ := os.Stat(wal)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, 4096))
	f.Close()

	db2, err := Open(dir, 1, 2, 4)
	if err != nil {
		t.Fatalf("reopen over a zero tail: %v", err)
	}
	defer db2.Close()
	if ss := db2.Sessions(); len(ss) != 1 || ss[0].SID != 1 {
		t.Fatalf("recovered sessions %v, want sid 1", ss)
	}
	if after, _ := os.Stat(wal); after.Size() != before.Size() {
		t.Fatalf("wal.log is %d bytes after open, want the %d of its records", after.Size(), before.Size())
	}
}

// framed returns the bytes recs take in a log.
func framed(recs ...string) int64 {
	var n int64
	for _, r := range recs {
		n += int64(frameHeader + len(r))
	}
	return n
}

// TestLogPadsAheadAndCloseTrims: a barrier leaves the file padded to the
// next padChunk boundary with 0xFF, a later barrier writes into the pad
// without growing the file, and Close trims the file to its records.
func TestLogPadsAheadAndCloseTrims(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	l.Append([]byte("first"))
	l.Sync()
	if got := size(); got != padChunk {
		t.Fatalf("after one barrier the file is %d bytes, want %d", got, padChunk)
	}
	data, _ := os.ReadFile(path)
	if tail := data[framed("first"):]; !bytes.Equal(tail, bytes.Repeat([]byte{0xFF}, len(tail))) {
		t.Fatal("the bytes behind the records are not all 0xFF")
	}
	l.Append([]byte("second"))
	l.Sync()
	if got := size(); got != padChunk {
		t.Fatalf("a barrier inside the pad grew the file to %d bytes", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := size(), framed("first", "second"); got != want {
		t.Fatalf("closed log is %d bytes, want its records' %d", got, want)
	}
}

// TestLogTornBatchInPad is the crash image "records, synced pad, a torn
// batch written into the pad": recovery keeps exactly the records, and a
// later append replays behind them.
func TestLogTornBatchInPad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("aaaa"))
	l.Append([]byte("bbbb"))
	l.Sync()
	l.f.Close() // the crash: no Close, so the pad stays
	torn := appendFrame(nil, []byte("cccc-never-synced"))
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(torn[:len(torn)-3], framed("aaaa", "bbbb"))
	f.Close()

	if got := collect(t, path); len(got) != 2 || string(got[1]) != "bbbb" {
		t.Fatalf("recovered %q, want aaaa and bbbb", got)
	}
	l2, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2.Append([]byte("dddd"))
	l2.Sync()
	l2.f.Close() // crash again, pad in place
	got := collect(t, path)
	if len(got) != 3 || string(got[0]) != "aaaa" || string(got[1]) != "bbbb" || string(got[2]) != "dddd" {
		t.Fatalf("after an append behind the recovered prefix: %q", got)
	}
}

// TestLogGrowsAcrossPadBoundaries appends records across several padChunk
// boundaries, one barrier each, and replays every one of them.
func TestLogGrowsAcrossPadBoundaries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{'r'}, 5000)
	var n int
	for ; l.length() < 3*padChunk+padChunk/2; n++ {
		rec[0] = byte(n)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	l.f.Close() // a crash, so the last pad stays too
	got := collect(t, path)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if r[0] != byte(i) || len(r) != len(rec) {
			t.Fatalf("record %d came back wrong", i)
		}
	}
}
