package shardkv

import (
	goruntime "runtime"
	"testing"
)

// The allocation pins of the hot-path overhaul: crash-free operations on
// the atomic fast path must not allocate. CI runs every TestAllocPin* at
// GOMAXPROCS 1, 2 and 8; a failure here means a change reintroduced per-op
// allocation (an escaping closure, a fresh Ctx, an unbounded history
// append, …).

func TestAllocPinCrashFreeGet(t *testing.T) {
	s := New(4, 2)
	s.PutRetry(0, "pin-key", 7)
	if allocs := testing.AllocsPerRun(500, func() {
		s.Get(0, "pin-key")
	}); allocs != 0 {
		t.Fatalf("crash-free Get allocates %v/op, want 0", allocs)
	}
}

func TestAllocPinCrashFreeGetRetry(t *testing.T) {
	s := New(4, 2)
	s.PutRetry(0, "pin-key", 7)
	if allocs := testing.AllocsPerRun(500, func() {
		s.GetRetry(0, "pin-key")
	}); allocs != 0 {
		t.Fatalf("crash-free GetRetry allocates %v/op, want 0", allocs)
	}
}

// A crash-free Put no longer allocates even the abstract operation's
// argument list: the register reuses a per-process descriptor and the
// shard's off history keeps nothing of it. The warm-up only creates the key
// and runs past any first-operation set-up.
func TestAllocPinCrashFreePut(t *testing.T) {
	s := New(4, 2)
	for i := 0; i < 8; i++ {
		s.Put(0, "pin-key", 7)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		s.Put(0, "pin-key", 7)
	}); allocs != 0 {
		t.Fatalf("crash-free Put allocates %v/op, want 0", allocs)
	}
}

// TestSpacePinEmptyStore: a served store holds no history, so an empty
// New(4, 8) is its shards' systems, spaces and empty key tables and nothing
// else — 32.2 KiB of live heap, where a 4096-event ring per shard made it
// 677.8 KiB.
func TestSpacePinEmptyStore(t *testing.T) {
	if raceEnabled {
		t.Skip("exact byte counts; race instrumentation adds a few objects")
	}
	const want = 48 << 10
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.GC() // twice: what a sync.Pool drops survives one collection as its victim cache
	goruntime.ReadMemStats(&before)
	s := New(4, 8)
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	goruntime.KeepAlive(s)
	bytes := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("empty New(4, 8): %d B", bytes)
	if bytes > want {
		t.Fatalf("an empty New(4, 8) holds %d B of live heap, want ≤ %d", bytes, want)
	}
}

// A warm batched put over caller-owned scratch allocates nothing: the
// outcome slice is session-owned storage and a shard records no history.
// The first call creates the keys and sizes the scratch; nothing else needs
// warming.
func TestAllocPinMultiPutWith(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of its Puts: a 64-entry batch reallocates ~16 pooled contexts")
	}
	s := New(8, 2)
	entries := make([]KV, 64)
	for i := range entries {
		entries[i] = KV{Key: "pin-key-" + string(rune('a'+i%26)) + string(rune('a'+i/26)), Val: i}
	}
	var sc BatchScratch
	for i := 0; i < 2; i++ {
		s.MultiPutWith(&sc, 0, entries)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		s.MultiPutWith(&sc, 0, entries)
	}); allocs != 0 {
		t.Fatalf("warm MultiPutWith allocates %v/op, want 0", allocs)
	}
}

// pinKeys returns n distinct keys for the rotating pins below.
func pinKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "rot-key-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	return keys
}

// The single-key pins above PUT and GET one key with one value, which a
// one-value cache in front of an allocation also satisfies (a word storing
// the value it holds returns early). These rotate 64 keys and write a value
// never written before on every op, and neither a Get nor a Put allocates:
// R is one packed word, and the announcements and RD_p are owner-only words
// that store their values in place.
func TestAllocPinRotatingGet(t *testing.T) {
	s := New(4, 2)
	keys := pinKeys(64)
	for i, k := range keys {
		s.PutRetry(0, k, i+1)
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Get(0, keys[i%len(keys)])
		i++
	}); allocs != 0 {
		t.Fatalf("crash-free Get over %d keys allocates %v/op, want 0", len(keys), allocs)
	}
}

func TestAllocPinRotatingPut(t *testing.T) {
	s := New(4, 2)
	keys := pinKeys(64)
	i := 0
	put := func() {
		s.Put(0, keys[i%len(keys)], i+1) // a fresh value every op
		i++
	}
	for n := 0; n < 2*len(keys); n++ { // the first lap creates the keys
		put()
	}
	if allocs := testing.AllocsPerRun(1000, put); allocs != 0 {
		t.Fatalf("crash-free Put of fresh values over %d keys allocates %v/op, want 0", len(keys), allocs)
	}
}

// TestAllocPinPutFreshValues: a Put and a 16-entry MultiPut of existing
// keys write a new value every iteration and allocate nothing — where a
// register's R was a boxed triple, each fresh value cost a box.
func TestAllocPinPutFreshValues(t *testing.T) {
	s := New(4, 8)
	entries := make([]KV, 16)
	for i, k := range pinKeys(len(entries)) {
		entries[i] = KV{Key: k, Val: i + 1}
	}
	var sc BatchScratch
	s.MultiPutWith(&sc, 0, entries) // creates the keys and sizes the scratch
	v := len(entries)
	if allocs := testing.AllocsPerRun(500, func() {
		v++
		s.Put(0, entries[v%len(entries)].Key, v)
	}); allocs != 0 {
		t.Fatalf("a Put of a fresh value allocates %v/op, want 0", allocs)
	}
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of its Puts: a 16-entry batch reallocates ~4 pooled contexts")
	}
	if allocs := testing.AllocsPerRun(500, func() {
		for i := range entries {
			v++
			entries[i].Val = v
		}
		s.MultiPutWith(&sc, 0, entries)
	}); allocs != 0 {
		t.Fatalf("a 16-entry MultiPut of fresh values allocates %v/op, want 0", allocs)
	}
	for _, e := range entries {
		if got := s.Peek(e.Key); got != e.Val {
			t.Fatalf("%s = %d, want %d", e.Key, got, e.Val)
		}
	}
}
