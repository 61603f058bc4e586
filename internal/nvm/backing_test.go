package nvm

import "testing"

// memBacking records journaled persists, standing in for the file-backed
// implementation in internal/durable.
type memBacking struct {
	keys []string
	vals []int64
	by   []Stamp
}

func (b *memBacking) Journal(key string, val int64, by Stamp) {
	b.keys = append(b.keys, key)
	b.vals = append(b.vals, val)
	b.by = append(b.by, by)
}

func TestSpaceJournalForwardsToBacking(t *testing.T) {
	sp := NewSpace()
	// Heap-backed: journaling is a no-op.
	sp.Journal("k", 1, Stamp{})

	b := &memBacking{}
	sp.SetBacking(b)
	sp.Journal("k", 41, Stamp{PID: 1, Status: 1})
	sp.Journal("j", 42, Stamp{PID: 2, Status: 2, Crashes: 1, Entry: 3, Batch: 4})
	if len(b.keys) != 2 || b.keys[0] != "k" || b.vals[0] != 41 || b.keys[1] != "j" || b.vals[1] != 42 {
		t.Fatalf("journaled %v %v", b.keys, b.vals)
	}
	if b.by[0] != (Stamp{PID: 1, Status: 1}) || b.by[1] != (Stamp{PID: 2, Status: 2, Crashes: 1, Entry: 3, Batch: 4}) {
		t.Fatalf("journaled stamps %+v", b.by)
	}
}

// TestBackingSurvivesEpochCrash pins that a simulated crash does not touch
// the backing registration: epoch crashes discard volatile cache state,
// not the persistence substrate.
func TestBackingSurvivesEpochCrash(t *testing.T) {
	sp := NewSpace()
	b := &memBacking{}
	sp.SetBacking(b)
	sp.Crash()
	sp.Journal("k", 7, Stamp{})
	if len(b.keys) != 1 {
		t.Fatalf("journal after crash recorded %d persists, want 1", len(b.keys))
	}
}
