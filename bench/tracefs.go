package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"detectable/internal/durable"
)

// Span kinds. Client spans are one request as the load connection sees it;
// fs spans are one call through the durable.Fs seam.
const (
	spanGet uint8 = iota
	spanPut
	spanMPut
	spanFsWrite
	spanFsSync
	spanFsSyncDir
	spanFsRename
)

var spanNames = [...]string{"client.get", "client.put", "client.mput", "fs.write", "fs.sync", "fs.syncdir", "fs.rename"}

// File classes of a data directory, for tagging fs spans.
const (
	classShardLog uint8 = iota
	classSessLog
	classSnap
	classOther
)

var classNames = [...]string{"shardlog", "sesslog", "snap", "other"}

func classOf(path string) uint8 {
	base := filepath.Base(path)
	switch {
	case strings.Contains(base, ".snap"):
		return classSnap
	case base == "sessions.log":
		return classSessLog
	case strings.HasSuffix(base, ".log"):
		return classShardLog
	}
	return classOther
}

// span is one traced interval, in nanoseconds since the recorder's origin.
// For client spans ID is session<<32 | request ID, the identifier the
// request carries on the wire; for fs spans Node and Class say whose file
// it was and Bytes how much was written.
type span struct {
	Kind       uint8
	Node       uint8
	Class      uint8
	Start, End int64
	ID         uint64
	Bytes      int64
}

// recorder holds every span of one run in memory allocated before the
// measured window; nothing is written out until the run ends. While off,
// the fs wrapper times nothing and records nothing.
type recorder struct {
	origin time.Time
	on     atomic.Bool
	n      atomic.Int64
	spans  []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// begin returns the current time if the recorder is on and -1 if it is
// off; record ignores a span that began at -1.
func (r *recorder) begin() int64 {
	if !r.on.Load() {
		return -1
	}
	return r.now()
}

func (r *recorder) add(s span) {
	if i := r.n.Add(1) - 1; int(i) < len(r.spans) {
		r.spans[i] = s
	}
}

// recorded returns the spans kept and how many did not fit.
func (r *recorder) recorded() (kept []span, dropped int) {
	n := int(r.n.Load())
	if n > len(r.spans) {
		return r.spans, n - len(r.spans)
	}
	return r.spans[:n], 0
}

// fileState tracks one file's length and its length at the last successful
// Sync — what a crash that discards the page cache would leave of it.
type fileState struct {
	size, synced atomic.Int64
}

// traceFs wraps a durable.Fs (durable.OS in the benchmark). It always
// tracks each file's synced length, for the crash-image check, and while
// the recorder is on it times every write, sync, directory sync and rename.
type traceFs struct {
	inner durable.Fs
	rec   *recorder
	node  uint8

	mu    sync.Mutex
	files map[string]*fileState
}

func newTraceFs(inner durable.Fs, rec *recorder, node uint8) *traceFs {
	return &traceFs{inner: inner, rec: rec, node: node, files: make(map[string]*fileState)}
}

func (t *traceFs) record(kind, class uint8, start, bytes int64) {
	if start >= 0 {
		t.rec.add(span{Kind: kind, Node: t.node, Class: class, Start: start, End: t.rec.now(), Bytes: bytes})
	}
}

func (t *traceFs) OpenFile(path string, flag int, perm os.FileMode) (durable.File, error) {
	f, err := t.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	st, known := t.files[path]
	if !known {
		st = &fileState{}
		t.files[path] = st
	}
	t.mu.Unlock()
	if flag&os.O_TRUNC != 0 {
		st.size.Store(0)
	} else if !known {
		// A file that was there before this wrapper: its bytes survived
		// whatever came before, so they count as synced.
		if size, err := f.Size(); err == nil {
			st.size.Store(size)
			st.synced.Store(size)
		}
	}
	return &traceFile{File: f, fs: t, st: st, class: classOf(path)}, nil
}

func (t *traceFs) ReadFile(path string) ([]byte, error)         { return t.inner.ReadFile(path) }
func (t *traceFs) MkdirAll(path string, perm os.FileMode) error { return t.inner.MkdirAll(path, perm) }
func (t *traceFs) Exists(path string) (bool, error)             { return t.inner.Exists(path) }
func (t *traceFs) Lock(dir string) (func(), error)              { return t.inner.Lock(dir) }

func (t *traceFs) Rename(oldpath, newpath string) error {
	start := t.rec.begin()
	if err := t.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	t.mu.Lock()
	if st, ok := t.files[oldpath]; ok {
		t.files[newpath] = st
		delete(t.files, oldpath)
	}
	t.mu.Unlock()
	t.record(spanFsRename, classOf(newpath), start, 0)
	return nil
}

func (t *traceFs) Remove(path string) error {
	t.mu.Lock()
	delete(t.files, path)
	t.mu.Unlock()
	return t.inner.Remove(path)
}

func (t *traceFs) SyncDir(dir string) error {
	start := t.rec.begin()
	err := t.inner.SyncDir(dir)
	t.record(spanFsSyncDir, classOther, start, 0)
	return err
}

// syncedLengths returns, for every file the wrapper saw in dir, the length
// a crash right now would be guaranteed to preserve.
func (t *traceFs) syncedLengths(dir string) map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64)
	for path, st := range t.files {
		if filepath.Dir(path) == dir {
			out[filepath.Base(path)] = min(st.synced.Load(), st.size.Load())
		}
	}
	return out
}

type traceFile struct {
	durable.File
	fs    *traceFs
	st    *fileState
	class uint8
	pos   int64 // offset of the next sequential Write
}

func (f *traceFile) grow(end int64) {
	if end > f.st.size.Load() {
		f.st.size.Store(end)
	}
}

func (f *traceFile) WriteAt(p []byte, off int64) (int, error) {
	start := f.fs.rec.begin()
	n, err := f.File.WriteAt(p, off)
	f.grow(off + int64(n))
	f.fs.record(spanFsWrite, f.class, start, int64(n))
	return n, err
}

func (f *traceFile) Write(p []byte) (int, error) {
	start := f.fs.rec.begin()
	n, err := f.File.Write(p)
	f.pos += int64(n)
	f.grow(f.pos)
	f.fs.record(spanFsWrite, f.class, start, int64(n))
	return n, err
}

func (f *traceFile) Truncate(size int64) error {
	err := f.File.Truncate(size)
	if err == nil {
		f.st.size.Store(size)
	}
	return err
}

func (f *traceFile) Sync() error {
	start := f.fs.rec.begin()
	size := f.st.size.Load()
	err := f.File.Sync()
	if err == nil {
		f.st.synced.Store(size)
	}
	f.fs.record(spanFsSync, f.class, start, 0)
	return err
}
