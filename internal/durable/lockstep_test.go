package durable

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestReplicationLockstep: with compaction off, a standby's write-ahead log
// past its bootstrap is the primary's past the bootstrap point, byte for
// byte, after well over a hundred epochs of every kind of durable step — the
// lockstep check of two implementations, as a comparison of two files — and
// both directories reopen to the same StateHash.
func TestReplicationLockstep(t *testing.T) {
	const epochs = 160
	open := func(dir string) *DB {
		t.Helper()
		db, err := Open(dir, 2, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		db.SetCompactThreshold(math.MaxInt64)
		return db
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	pdir, bdir := t.TempDir(), t.TempDir()
	pdb, bdb := open(pdir), open(bdir)

	// A state to bootstrap from.
	keys := tableKeys(40)
	must(pdb.AppendHello(1, 0))
	journalAll(t, pdb, keys)
	must(pdb.CommitOutcome(1, 1, []byte("warm")))

	sub := pdb.Subscribe(0)
	point := pdb.wal.length()
	rp := bdb.NewReplica()
	apply := func(msgs [][]byte) {
		t.Helper()
		for i, m := range msgs {
			if _, _, err := rp.Apply(m); err != nil {
				t.Fatalf("Apply msg %d (kind 0x%02x): %v", i, m[0], err)
			}
		}
	}
	chunk, err := sub.Next() // the whole bootstrap: nothing else is staged yet
	must(err)
	var boot [][]byte
	for len(chunk) > 0 {
		n := 4 + int(binary.BigEndian.Uint32(chunk))
		boot = append(boot, append([]byte(nil), chunk[4:n]...))
		chunk = chunk[n:]
	}
	apply(boot)
	prefix := bdb.wal.length()
	if prefix == 0 {
		t.Fatal("the bootstrap installed no records")
	}

	req, sid := uint64(1), uint64(10)
	for e := 0; e < epochs; e++ {
		switch e % 4 {
		case 0: // an MPUT: puts over both shards, one outcome
			for k := 0; k < 3; k++ {
				pdb.ShardBacking(k%2).Persist(keys[(e+k)%40], int64(e*10+k+1))
			}
			req++
			must(pdb.CommitOutcome(1, req, []byte("mput-ok")))
		case 1: // a DEL: a zero, one outcome
			pdb.ShardBacking(e%2).Persist(keys[e%40], 0)
			req++
			must(pdb.CommitOutcome(1, req, []byte("del-ok")))
		case 2: // a hello
			sid++
			must(pdb.AppendHello(sid, 1+e%3))
		case 3: // an end
			must(pdb.AppendEnd(sid))
		}
	}
	sub.Close()
	apply(streamOf(t, sub))
	must(pdb.Close())
	must(bdb.Close())

	plog, err := os.ReadFile(filepath.Join(pdir, "wal.log"))
	must(err)
	blog, err := os.ReadFile(filepath.Join(bdir, "wal.log"))
	must(err)
	if len(plog) <= int(point) {
		t.Fatalf("the primary's log holds %d bytes, nothing past the bootstrap point %d", len(plog), point)
	}
	if !bytes.Equal(plog[point:], blog[prefix:]) {
		t.Fatalf("the logs differ past the bootstrap: primary %d bytes from %d, standby %d bytes from %d",
			len(plog)-int(point), point, len(blog)-int(prefix), prefix)
	}
	pdb, bdb = open(pdir), open(bdir)
	defer pdb.Close()
	defer bdb.Close()
	if p, b := pdb.StateHash(), bdb.StateHash(); p != b {
		t.Fatalf("reopened primary hash %s, standby %s", p, b)
	}
}
