package durable_test

import (
	"encoding/binary"
	"testing"

	"detectable/internal/durable"
	"detectable/internal/runtime"
	"detectable/internal/simio"
)

// FuzzReplicaApply feeds a replication stream — u32-length-framed messages,
// the bytes a standby reads off the wire — to a standby's Replica. Whatever
// the bytes, Apply must not panic, the read view must never be published
// past the highest commit mark applied, and the standby's directory must
// recover what the live standby holds: closing and reopening it gives the
// same StateHash, with a compaction at every anchor on the way. The seeds
// are a real primary's streams, live and bootstrap, truncated, reordered,
// duplicated and corrupted variants of them, and hand-made shapes.
func FuzzReplicaApply(f *testing.F) {
	pdb := openSim(f, simio.New())
	live := pdb.Subscribe(0)
	workload(f, pdb)
	live.Close()
	msgs := drain(f, live)
	snap := pdb.Subscribe(0)
	snap.Close()
	resync := drain(f, snap)
	pdb.Close()

	stream := func(msgs ...[]byte) []byte {
		var b []byte
		for _, m := range msgs {
			b = binary.BigEndian.AppendUint32(b, uint32(len(m)))
			b = append(b, m...)
		}
		return b
	}
	full := stream(msgs...)
	f.Add(full)
	f.Add(stream(resync...))
	f.Add(stream(msgs[:len(msgs)/2]...))                             // cut mid-stream
	f.Add(full[:len(full)-3])                                        // torn last frame
	f.Add(stream(append(append([][]byte{}, msgs...), msgs...)...))   // the whole stream twice
	f.Add(stream(append(append([][]byte{}, resync...), msgs...)...)) // a snapshot, then a stale live stream
	wide, _ := widenLastPut(msgs)
	f.Add(stream(wide...)) // a value outside the register domain
	for i, m := range msgs {
		if m[0] != durable.ReplBarrier {
			continue
		}
		// The barrier ahead of the records it closes, and its commit mark
		// ahead of the barrier.
		swapped := append([][]byte{}, msgs...)
		swapped[i-1], swapped[i] = swapped[i], swapped[i-1]
		f.Add(stream(swapped...))
		if i+1 < len(msgs) && msgs[i+1][0] == durable.ReplCommit {
			early := append([][]byte{}, msgs...)
			early[i], early[i+1] = early[i+1], early[i]
			f.Add(stream(early...))
		}
		// The barrier twice.
		f.Add(stream(append(append(append([][]byte{}, msgs[:i+1]...), m), msgs[i+1:]...)...))
		break
	}
	for i, m := range msgs {
		if m[0] != durable.ReplLog || i < 4 {
			continue
		}
		// A record whose checksum does not match its bytes.
		bad := append([]byte(nil), m...)
		bad[len(bad)-1] ^= 1
		f.Add(stream(append(append(append([][]byte{}, msgs[:i]...), bad), msgs[i+1:]...)...))
		// Live records with no bootstrap ahead of them.
		f.Add(stream(msgs[i:]...))
		// A bootstrap cut before its barrier, then the live stream.
		f.Add(stream(append(append([][]byte{}, resync[:2]...), msgs[i:]...)...))
		break
	}
	// A bootstrap whose records come one per message.
	split := [][]byte{resync[0]}
	for b := resync[1][1:]; len(b) > 0; {
		n := 8 + int(binary.BigEndian.Uint32(b))
		split = append(split, append([]byte{durable.ReplLog}, b[:n]...))
		b = b[n:]
	}
	f.Add(stream(append(split, resync[2:]...)...))
	// The stamped shapes, each a primary's stream from its bootstrap on: a
	// PUT's epoch, its put-at record its verdict; an MPUT whose outcome
	// record was torn off, its stamped entries ahead of it; and a stamp of a
	// process no hello ahead of it leased.
	for _, shape := range []func(db *durable.DB){
		func(db *durable.DB) { stampedPuts(f, db, 0, 1, 0, "put") },
		func(db *durable.DB) { stampedPuts(f, db, 0, 2, 3, "mput-0", "mput-1") },
		func(db *durable.DB) { stampedPuts(f, db, 1, 3, 0, "orphan") },
	} {
		sdb := openSim(f, simio.New())
		if err := sdb.AppendHello(1, 0); err != nil {
			f.Fatal(err)
		}
		sub := sdb.Subscribe(0)
		shape(sdb)
		sub.Close()
		f.Add(stream(drain(f, sub)...))
		sdb.Close()
	}
	// The kinds an older stream carried a record in, one record each.
	f.Add(stream(resync[0], []byte{0x02, 0x06}, []byte{0x03, 0x04, 0, 0, 0, 0, 0, 0, 0, 1}, []byte{0x04, 0, 0, 0, 0, 0, 0, 0, 1}))

	f.Fuzz(func(t *testing.T, stream []byte) {
		fsim := simio.New()
		db := openSim(t, fsim)
		db.SetCompactThreshold(1)
		rep := db.NewReplica()
		var committed uint64
		for len(stream) >= 4 {
			n := binary.BigEndian.Uint32(stream)
			if uint64(n) > uint64(len(stream)-4) {
				break
			}
			msg := stream[4 : 4+n]
			stream = stream[4+n:]
			_, _, err := rep.Apply(msg)
			if err == nil && len(msg) == 9 && msg[0] == durable.ReplCommit {
				committed = max(committed, binary.BigEndian.Uint64(msg[1:]))
			}
			if seq := db.ViewSeq(); seq > committed {
				t.Fatalf("read view published through %d, highest commit mark applied is %d", seq, committed)
			}
		}
		want := db.StateHash()
		if err := db.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		db = openSim(t, fsim)
		defer db.Close()
		if got := db.StateHash(); got != want {
			t.Fatalf("reopened standby hash %s, live standby %s", got, want)
		}
	})
}

// stampedPuts journals keys as process pid running request req — the first
// entries of an MPUT of n when n > 0, a PUT or DEL of one key when n is 0 —
// each put-at record
// stamped with an ok verdict, and makes them durable with a bare barrier,
// as a served request does before its outcome record, if any.
func stampedPuts(t testing.TB, db *durable.DB, pid int, req uint64, n int, keys ...string) {
	t.Helper()
	db.BeginRequest(pid, req)
	for i, k := range keys {
		db.ShardBacking(i%testShards).Journal(k, int64(req), durable.Stamp{PID: pid, Status: int(runtime.StatusOK), Entry: i, Batch: n})
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
}
