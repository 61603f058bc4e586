package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"testing"
)

// captureLog routes the default slog logger into a buffer for the rest of the
// test and returns a function that decodes every line logged so far. The
// lines it captures are logged on the test's own goroutine.
func captureLog(t *testing.T) func() []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&buf, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })
	return func() []map[string]any {
		var lines []map[string]any
		for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if l == "" {
				continue
			}
			var m map[string]any
			if err := json.Unmarshal([]byte(l), &m); err != nil {
				t.Fatalf("log line %q: %v", l, err)
			}
			lines = append(lines, m)
		}
		return lines
	}
}

// TestPoisonLogsOnce: the failed barrier that poisons the write-ahead log is
// reported as one ERROR line naming the log and the cause, however many
// commits fail behind it.
func TestPoisonLogsOnce(t *testing.T) {
	lines := captureLog(t)
	db, err := Open(t.TempDir(), 1, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AppendHello(1, 0); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected EIO")
	hookSync(db.wal, func(File) error { return boom })
	for req := uint64(1); req <= 3; req++ {
		if err := db.CommitOutcome(1, req, []byte("x")); !errors.Is(err, boom) {
			t.Fatalf("commit %d = %v, want wrapped %v", req, err, boom)
		}
	}
	var poisoned []map[string]any
	for _, l := range lines() {
		if strings.Contains(l["msg"].(string), "poisoned") {
			poisoned = append(poisoned, l)
		}
	}
	if len(poisoned) != 1 {
		t.Fatalf("%d poison lines, want exactly 1: %v", len(poisoned), poisoned)
	}
	if l := poisoned[0]; l["level"] != "ERROR" || l["path"] != db.wal.path || l["cause"] != boom.Error() {
		t.Fatalf("poison line %v: want level ERROR, path %s, cause %q", l, db.wal.path, boom)
	}
}

// TestCompactionLogsOnce: a compaction is reported as one INFO line with the
// log's bytes before and after and how long the rewrite took.
func TestCompactionLogsOnce(t *testing.T) {
	lines := captureLog(t)
	db, err := Open(t.TempDir(), 2, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AppendHello(1, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // eight values of one key: the rewrite keeps one
		db.ShardBacking(0).Persist("k", int64(i))
		if err := db.CommitOutcome(1, uint64(i+1), []byte("ok")); err != nil {
			t.Fatal(err)
		}
	}
	before := db.wal.length()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	var compacted []map[string]any
	for _, l := range lines() {
		if strings.Contains(l["msg"].(string), "compacted") {
			compacted = append(compacted, l)
		}
	}
	if len(compacted) != 1 {
		t.Fatalf("%d compaction lines, want exactly 1: %v", len(compacted), compacted)
	}
	l := compacted[0]
	if l["level"] != "INFO" || l["path"] != db.wal.path {
		t.Fatalf("compaction line %v: want level INFO and path %s", l, db.wal.path)
	}
	if got := l["bytes_before"]; got != float64(before) {
		t.Fatalf("bytes_before = %v, want %d", got, before)
	}
	if got := l["bytes_after"]; got != float64(db.wal.length()) || got.(float64) >= float64(before) {
		t.Fatalf("bytes_after = %v, want the rewritten log's %d (< %d)", got, db.wal.length(), before)
	}
	if _, ok := l["duration"].(float64); !ok {
		t.Fatalf("compaction line %v carries no duration", l)
	}
}

// TestBootstrapLogsOnce: a standby whose log a bootstrap replaces reports it
// as one INFO line with the generation, the records and bytes it installed
// and how long that took.
func TestBootstrapLogsOnce(t *testing.T) {
	lines := captureLog(t)
	pdb := openQuiet(t, 2)
	if err := pdb.SetGeneration(3); err != nil {
		t.Fatal(err)
	}
	journalAll(t, pdb, tableKeys(10))
	if err := pdb.AppendHello(1, 0); err != nil {
		t.Fatal(err)
	}
	sub := pdb.Subscribe(0)
	sub.Close()
	msgs := streamOf(t, sub)
	records, size := 0, 0
	for _, m := range msgs {
		if m[0] == ReplLog {
			size += len(m) - 1
			eachFrame(m[1:], func([]byte) error { records++; return nil })
		}
	}

	bdb := openQuiet(t, 2)
	rp := bdb.NewReplica()
	for i, m := range msgs {
		if _, _, err := rp.Apply(m); err != nil {
			t.Fatalf("Apply msg %d (kind 0x%02x): %v", i, m[0], err)
		}
	}
	var installed []map[string]any
	for _, l := range lines() {
		if strings.Contains(l["msg"].(string), "bootstrap installed") {
			installed = append(installed, l)
		}
	}
	if len(installed) != 1 {
		t.Fatalf("%d bootstrap lines, want exactly 1: %v", len(installed), installed)
	}
	l := installed[0]
	if l["level"] != "INFO" || l["path"] != bdb.wal.path || l["generation"] != float64(3) {
		t.Fatalf("bootstrap line %v: want level INFO, path %s, generation 3", l, bdb.wal.path)
	}
	if l["records"] != float64(records) || l["bytes"] != float64(size) || records != 12 {
		t.Fatalf("bootstrap line %v: want %d records (10 puts, the mark, a hello) in %d bytes", l, records, size)
	}
	if _, ok := l["duration"].(float64); !ok {
		t.Fatalf("bootstrap line %v carries no duration", l)
	}
}
