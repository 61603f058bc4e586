package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strconv"
	"testing"

	"detectable/internal/durable"
	"detectable/internal/runtime"
	"detectable/internal/shardkv"
	"detectable/internal/simio"
)

// Allocation pins for the wire layer: encoding a frame into a warm
// session scratch allocates nothing, and reading frames through a
// session-owned grow-only buffer allocates nothing once the buffer has
// grown to the workload's frame size.

func TestAllocPinAppendEncoders(t *testing.T) {
	buf := make([]byte, 0, 512)
	entries := []shardkv.KV{{Key: "a", Val: 1}, {Key: "b", Val: 2}}
	keys := []string{"a", "b", "c"}
	if allocs := testing.AllocsPerRun(500, func() {
		buf = AppendPut(buf[:0], 9, 0, "pin-key", 42)
		buf = AppendGet(buf[:0], 10, 0, "pin-key")
		buf = AppendMPut(buf[:0], 11, entries)
		buf = AppendMGet(buf[:0], 12, keys)
		buf = AppendBare(buf[:0], OpStats, 13)
	}); allocs != 0 {
		t.Fatalf("append encoders allocate %v/iteration, want 0", allocs)
	}
}

func TestAllocPinWriteFrameBuffered(t *testing.T) {
	bw := bufio.NewWriter(io.Discard)
	buf := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(500, func() {
		buf = AppendPut(buf[:0], 9, 0, "pin-key", 42)
		if err := WriteFrameBuffered(bw, buf); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("encode+write+flush allocates %v/frame, want 0", allocs)
	}
}

func TestAllocPinReadFrameInto(t *testing.T) {
	frame := AppendPut(nil, 7, 0, "pin-key", 99)
	var wire bytes.Buffer
	WriteFrame(&wire, frame)
	raw := wire.Bytes()

	buf := make([]byte, 0, 64)
	r := bytes.NewReader(raw)
	if _, err := ReadFrameInto(r, &buf); err != nil { // warm the buffer
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		r.Reset(raw)
		if _, err := ReadFrameInto(r, &buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm ReadFrameInto allocates %v/frame, want 0", allocs)
	}
}

// The reply path: recording an outcome reply into a warm session window
// copies it into the reused buffer of the ID's slot, so it allocates
// nothing once every slot has held a reply; the pin stays at ≤ 1.
func TestAllocPinRecordRecyclesWindowEntries(t *testing.T) {
	sess := &session{window: durable.NewWindow(Window)}
	reply := append([]byte{StatusOK}, make([]byte, 12)...)
	reqID := uint64(0)
	// Two laps of the window, so every slot's buffer is grown and reused.
	for i := 0; i < Window*2; i++ {
		reqID++
		sess.window.Note(reqID, reply, false)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		reqID++
		sess.window.Note(reqID, reply, false)
	}); allocs > 1 {
		t.Fatalf("steady-state record allocates %v/op, want ≤ 1", allocs)
	}
}

// The full served MPUT path — header decode, zero-copy key decode, the
// batch's entry loop, reply encode, window record — allocates nothing once
// warm. The warm-up loop settles the outcome window's recycled entry
// buffers (two laps of it); the shards record no history.
func TestAllocPinServedMultiPut(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of its Puts: a 64-entry batch reallocates ~16 pooled contexts")
	}
	store := shardkv.New(8, 2)
	srv := New(store)
	ls, err := srv.NewLoopbackSession()
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	entries := make([]shardkv.KV, 64)
	for i := range entries {
		entries[i] = shardkv.KV{Key: "pin-key-" + string(rune('a'+i%26)) + string(rune('a'+i/26)), Val: i}
	}
	payload := AppendMPut(nil, 0, entries)

	for i := 0; i < 2*Window; i++ {
		PatchReqID(payload, ls.NextID())
		if reply := ls.Handle(payload); len(reply) == 0 || reply[0] != StatusOK {
			t.Fatalf("warm-up MPUT reply %v", reply)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		PatchReqID(payload, ls.NextID())
		ls.Handle(payload)
	}); allocs != 0 {
		t.Fatalf("warm served MPUT allocates %v/op, want 0", allocs)
	}
}

// The served counterparts of shardkv's rotating pins: 64 keys in rotation
// and a fresh value per PUT, so no cache of the previous value can stand in
// for an allocation-free path. Neither a served GET nor a served PUT
// allocates: the register's R is one packed word.
func TestAllocPinServedRotating(t *testing.T) {
	store := shardkv.New(4, 2)
	srv := New(store)
	ls, err := srv.NewLoopbackSession()
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	keys := make([]string, 64)
	for i := range keys {
		keys[i] = "rot-key-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	payload := make([]byte, 0, 64)
	i := 0
	put := func() {
		payload = AppendPut(payload[:0], ls.NextID(), 0, keys[i%len(keys)], i+1)
		i++
		if reply := ls.Handle(payload); len(reply) == 0 || reply[0] != StatusOK {
			t.Fatalf("PUT reply %v", reply)
		}
	}
	get := func() {
		payload = AppendGet(payload[:0], ls.NextID(), 0, keys[i%len(keys)])
		i++
		if reply := ls.Handle(payload); len(reply) == 0 || reply[0] != StatusOK {
			t.Fatalf("GET reply %v", reply)
		}
	}
	for n := 0; n < 2*Window; n++ { // creates the keys, settles the outcome window
		put()
	}
	if allocs := testing.AllocsPerRun(1000, put); allocs != 0 {
		t.Fatalf("served PUT of fresh values allocates %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, get); allocs != 0 {
		t.Fatalf("served GET over %d keys allocates %v/op, want 0", len(keys), allocs)
	}
}

// streamedStandby returns a genuine standby server (never listening, never
// replicating again) whose DB was fed through the real replication stream
// from a primary that committed keys "pin-0" … "pin-<keys-1>" = 1 … keys
// under session 1 (pid 0): the applied view holds them, and promotion
// would recover that session.
func streamedStandby(t *testing.T, shards, procs, keys int) (*Server, *durable.DB) {
	t.Helper()
	pdb, err := durable.OpenFs(simio.New(), "/data", shards, procs, Window)
	if err != nil {
		t.Fatal(err)
	}
	sub := pdb.Subscribe(0)
	if err := pdb.AppendHello(1, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		key := "pin-" + strconv.Itoa(i)
		pdb.ShardBacking(shardkv.ShardIndex(key, shards)).Persist(key, int64(i+1))
		if err := pdb.CommitOutcome(1, uint64(i+1), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	sub.Close()
	return standbyFrom(t, shards, procs, streamOf(t, sub))
}

// streamOf returns the messages of a closed replication subscription.
func streamOf(t *testing.T, sub *durable.ReplSub) (msgs [][]byte) {
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

// standbyFrom returns a standby server over a fresh simulated disk whose DB
// was fed msgs, a replication stream or a prefix of one, through
// Replica.Apply.
func standbyFrom(t *testing.T, shards, procs int, msgs [][]byte) (*Server, *durable.DB) {
	t.Helper()
	rdb, err := durable.OpenFs(simio.New(), "/data", shards, procs, Window)
	if err != nil {
		t.Fatal(err)
	}
	rp := rdb.NewReplica()
	for i, m := range msgs {
		if _, _, err := rp.Apply(m); err != nil {
			t.Fatalf("Apply msg %d (kind 0x%02x): %v", i, m[0], err)
		}
	}
	return NewStandby(rdb, func() *shardkv.Store {
		return shardkv.New(shards, procs, shardkv.Durable(rdb))
	}), rdb
}

// The replica GET path end to end, minus the socket: a genuine standby
// server over a durable DB whose applied view was populated through the
// real replication stream (Subscribe → Replica.Apply, published on COMMIT),
// serving a read-only session — execute → readKey → ViewGet → reply encode →
// window record allocate nothing once warm.
func TestAllocPinReplicaGet(t *testing.T) {
	srv, _ := streamedStandby(t, 4, 2, 64)
	// A loopback session of the kind a standby serves (readonly.go):
	// slotless and GET-only.
	ls, err := srv.newLoopback(kindReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	payload := AppendGet(nil, 0, 0, "pin-7")
	get := func() []byte {
		PatchReqID(payload, ls.NextID())
		return ls.Handle(payload)
	}
	for i := 0; i < 2*Window; i++ { // settles the outcome window's recycled entries
		get()
	}
	// The reply is the value streamed from the primary, so the view served it.
	want := durable.AppendReply(nil, runtime.Outcome[int]{Status: runtime.StatusOK, Resp: 8})
	if reply := get(); !bytes.Equal(reply, want) {
		t.Fatalf("replica GET pin-7 = %x, want %x", reply, want)
	}
	if allocs := testing.AllocsPerRun(200, func() { get() }); allocs != 0 {
		t.Fatalf("warm replica GET allocates %v/op, want 0", allocs)
	}
}
