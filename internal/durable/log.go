// Package durable is the file-backed persistence substrate behind the
// simulated NVM spaces: an on-disk data directory holding one append-only
// CRC-framed write-ahead log shared by every shard and the session layer —
// the only file of records there is; a compaction rewrites it — so that the
// paper's persist ordering maps onto position in that log and the whole
// process — not just a simulated epoch — can be killed and restarted
// without losing a single detectable verdict.
//
// The layering is deliberate: internal/shardkv journals every linearized
// mutation, stamped with its verdict, straight into its shard's share of
// this package's log (ShardBacking.Journal), and internal/server makes each
// session's request-ID→outcome window durable so a client that reconnects
// after a whole-process crash still receives the original verdict.
// docs/DURABILITY.md is the normative description of the format and the
// recovery procedure.
//
// All I/O goes through the Fs seam (fs.go): the OS implementation by
// default, internal/simio's simulated filesystem under the crash-prefix
// model checker, which recovers from every crash point × torn-write variant
// of a workload and pins recovery as a pure function of the byte image via
// StateHash.
package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
)

// Record framing: every record in a log file is
//
//	u32(len(payload)) u32(crc32c(payload)) payload
//
// with big-endian integers. A record whose length field runs past the end
// of the file (a torn append) or exceeds MaxRecord (the 0xFF pad a barrier
// leaves ahead of the records), whose CRC does not match (a corrupted tail)
// or whose payload is empty (a run of zeros, which no writer frames) ends
// the valid prefix: recovery keeps everything before it and truncates the
// rest, exactly once, on open.
const (
	// FrameHeader is the framed-record header size: u32 length + u32 CRC.
	FrameHeader = 8
	frameHeader = FrameHeader
	// MaxRecord bounds one record's payload; a larger length field cannot
	// come from a writer of this package and is treated as corruption.
	MaxRecord = 1 << 24
)

// castagnoli is the CRC-32C table used for record checksums (the
// polynomial NVM-adjacent storage systems conventionally use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is one append-only CRC-framed record file. Appends are staged in
// memory — they do not reach the kernel until the next Sync — so a batch
// of records costs one write plus one fsync, and a record can never become
// durable (or even reach the page cache) before the barrier that is
// supposed to order it. All methods are safe for concurrent use.
//
// Append never waits for the disk: a barrier takes the staged batch under
// mu and does its write and fsync under bmu alone, so records keep staging
// (into the other of two buffers) while the previous batch is on its way
// to the medium. Barriers are serialised by bmu, which is why an Append
// that returned before a Sync call began is durable when that Sync returns:
// its record is either in the batch of a barrier that finishes first or in
// this one's.
//
// The file runs ahead of its records: a barrier whose batch would end past
// alloc also writes 0xFF pad up to the next padChunk boundary, before the
// same fsync, so later barriers overwrite blocks the file already has and
// their fsyncs flush data without committing a size change. Close trims the
// pad.
//
// A failed barrier poisons the log: after a write or fsync error every
// subsequent Append and Sync fails with the original error. Retrying an
// fsync that already failed is not safe — the kernel may have dropped the
// dirty pages while reporting the error, so a later "successful" fsync
// would claim durability for data that never reached the disk.
type Log struct {
	bmu   sync.Mutex // serialises barriers; held across file I/O, taken before mu
	fs    Fs
	f     File  // replaced by Rewrite, under bmu and mu
	alloc int64 // bytes of the file written, records and pad; guarded by bmu
	path  string
	// tap, when set, receives every batch as it leaves the staging buffer:
	// every record in file order, under bmu (replicate.go). A Rewrite hands
	// it nothing. Set at open.
	tap func(framed []byte)

	mu    sync.Mutex
	size  int64  // bytes of framed records at file offsets, the batch in flight included
	base  int64  // size the last rewrite left; 0 until there has been one since the open
	buf   []byte // framed records staged since the last barrier took its batch
	spare []byte // the last batch's buffer, back from the barrier for reuse
	err   error  // sticky poison from a failed write or fsync
}

// maxSpare bounds the staging buffer a barrier hands back for reuse, so one
// wide batch does not pin its high-water mark in both buffers for good.
const maxSpare = 32 << 10

// padChunk is the granularity the file grows by: a barrier that would end
// past alloc pads the file to the next multiple of it.
const padChunk = 64 << 10

// pad is what a barrier writes beyond its batch. Its bytes read as a frame
// header whose length exceeds MaxRecord, so the valid prefix ends at the
// first of them whatever the reader's version.
var pad = func() (p [padChunk]byte) {
	for i := range p {
		p[i] = 0xFF
	}
	return p
}()

// OpenLog opens the record log at path on the real filesystem. See
// OpenLogFs.
func OpenLog(path string, fn func(rec []byte) error) (*Log, error) {
	return OpenLogFs(OS, path, fn)
}

// OpenLogFs opens (creating if needed) the record log at path, replays
// every valid record through fn in append order, truncates the file to the
// last valid prefix (discarding a torn or corrupted tail), and returns the
// log positioned for appending. A replay error aborts the open.
//
// A freshly created log gets its parent directory fsynced before use: a
// log whose directory entry is still unsynced can vanish wholesale in a
// crash — taking fsynced records with it — which is strictly worse than a
// torn tail because recovery cannot even see that data was lost.
func OpenLogFs(fsys Fs, path string, fn func(rec []byte) error) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	created := false
	if err != nil && os.IsNotExist(err) {
		f, err = fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		created = err == nil
	}
	if err != nil {
		return nil, err
	}
	if created {
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	l := &Log{fs: fsys, f: f, path: path}
	valid, err := scanRecords(f, fn)
	if err != nil {
		f.Close()
		return nil, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	if size > valid {
		// Torn or corrupted tail: keep the last valid prefix, drop the rest.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	l.size, l.alloc = valid, valid
	return l, nil
}

// scanRecords reads framed records from the start of f, calling fn for
// each valid one, and returns the byte offset of the end of the valid
// prefix. Corruption (bad CRC, impossible length, short tail, an empty
// frame) is not an error: it just ends the prefix.
func scanRecords(f File, fn func(rec []byte) error) (int64, error) {
	data, err := readAll(f)
	if err != nil {
		return 0, err
	}
	var off int64
	for {
		rec, n := nextRecord(data[off:])
		if n == 0 {
			return off, nil
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return 0, fmt.Errorf("durable: replay %s at offset %d: %w", f.Name(), off, err)
			}
		}
		off += n
	}
}

// nextRecord decodes the first framed record in b, returning the payload
// and the total framed size, or (nil, 0) when b starts with a torn,
// corrupted, empty or absent record. An empty frame is eight zero bytes
// (crc32c of nothing is 0): what a page of an append that reached the disk
// before the page in front of it leaves, never a record.
func nextRecord(b []byte) ([]byte, int64) {
	if len(b) < frameHeader {
		return nil, 0
	}
	n := binary.BigEndian.Uint32(b)
	if n == 0 || n > MaxRecord || int64(len(b)) < frameHeader+int64(n) {
		return nil, 0
	}
	want := binary.BigEndian.Uint32(b[4:])
	payload := b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, 0
	}
	return payload, frameHeader + int64(n)
}

// readAll reads f from the start without moving its append position.
func readAll(f File) ([]byte, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return data, nil
}

// Append frames payload and stages it at the end of the log. The record
// stays in memory until the next Sync; callers must not release an effect
// that depends on it before that barrier. An empty payload is refused:
// recovery reads an empty frame as the end of the records.
func (l *Log) Append(payload []byte) error {
	if err := checkRecord(payload); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.buf = appendFrame(l.buf, payload)
	return nil
}

// stageFramed stages records that are framed already — an epoch's records,
// a replicated batch — as they are. The caller framed them itself or checked
// every frame.
func (l *Log) stageFramed(framed []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.buf = append(l.buf, framed...)
	return nil
}

// checkRecord refuses a payload recovery could not read back.
func checkRecord(payload []byte) error {
	switch {
	case len(payload) == 0:
		return fmt.Errorf("durable: empty record")
	case len(payload) > MaxRecord:
		return fmt.Errorf("durable: record of %d bytes exceeds MaxRecord", len(payload))
	}
	return nil
}

// appendFrame appends one framed record to dst.
func appendFrame(dst, payload []byte) []byte {
	return sealFrame(append(append(dst, make([]byte, frameHeader)...), payload...), len(dst))
}

// sealFrame fills in the frame header reserved at dst[start:] for the
// payload appended behind it, so a record can be encoded in place.
func sealFrame(dst []byte, start int) []byte {
	payload := dst[start+frameHeader:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// eachFrame calls fn for every record of framed, a run of whole frames, and
// fails on the first frame that is torn, corrupted or empty.
func eachFrame(framed []byte, fn func(rec []byte) error) error {
	for len(framed) > 0 {
		rec, n := nextRecord(framed)
		if n == 0 {
			return fmt.Errorf("durable: torn or corrupted record frame")
		}
		if err := fn(rec); err != nil {
			return err
		}
		framed = framed[n:]
	}
	return nil
}

// Sync is the durability barrier: every Append that returned before Sync
// was called is physically durable when it returns. Staged records are
// flushed in one coalesced write, then fsynced. A clean log (no appends
// since the last barrier) syncs nothing. A failed barrier poisons the log
// permanently — see the Log doc comment.
func (l *Log) Sync() error {
	_, err := l.syncMarked(nil)
	return err
}

// syncMarked is Sync that calls mark once the batch has gone to the tap and
// before it is written, a clean log included: where DB.anchor puts an
// epoch's barrier on the replication stream, ahead of its own fsync. It
// returns the batch it made durable, which stays intact until the next
// barrier takes its own.
func (l *Log) syncMarked(mark func()) ([]byte, error) {
	l.bmu.Lock()
	defer l.bmu.Unlock()
	return l.barrier(mark)
}

// barrier takes the staged batch, hands it to the tap, calls mark (when not
// nil), makes the batch durable — one WriteAt, a second one of pad when the
// batch ends past alloc, one fsync, none of them under mu — and returns it.
// Called with l.bmu held.
func (l *Log) barrier(mark func()) ([]byte, error) {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return nil, err
	}
	batch, off := l.buf, l.size
	if len(batch) > 0 {
		l.buf, l.spare = l.spare[:0], nil
		l.size += int64(len(batch))
	}
	l.mu.Unlock()
	if l.tap != nil {
		l.tap(batch)
	}
	if mark != nil {
		mark()
	}
	if len(batch) == 0 {
		return nil, nil
	}

	// A failed write may have left part of the batch at its offset, and the
	// kernel may drop dirty pages on a failed fsync (fsyncgate), so neither
	// is retried: nothing after this point can be trusted durable.
	_, err := l.f.WriteAt(batch, off)
	if end := off + int64(len(batch)); err == nil && end > l.alloc {
		l.alloc = (end + padChunk - 1) / padChunk * padChunk
		if end < l.alloc {
			_, err = l.f.WriteAt(pad[:l.alloc-end], end)
		}
	}
	if err == nil {
		err = l.f.Sync()
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.poison(err)
		return nil, l.err
	}
	if cap(batch) <= maxSpare {
		l.spare = batch[:0]
	}
	return batch, nil
}

// poison records the first write/fsync failure; every later Append, Sync
// and Rewrite returns it. The first failure is also the operator's one
// signal that this node has stopped committing. Called with l.mu held.
func (l *Log) poison(cause error) {
	if l.err == nil {
		l.err = fmt.Errorf("durable: log %s poisoned by failed barrier: %w", filepath.Base(l.path), cause)
		slog.Error("durable: write-ahead log poisoned, every later commit fails", "path", l.path, "cause", cause)
	}
}

// Appended returns how many bytes of records, staged ones included, the log
// holds beyond what its last rewrite wrote — what a compaction threshold
// counts. The size itself would not do: a rewritten log is as large as the
// state, so a state past the threshold would be rewritten at every barrier.
// A log not rewritten since it was opened counts whole (recovery cannot tell
// the state from the tail behind it), so a node that keeps restarting before
// it has appended a threshold's worth still compacts and the log stays
// bounded.
func (l *Log) Appended() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size + int64(len(l.buf)) - l.base
}

// length returns the bytes of records the log holds, staged ones included.
func (l *Log) length() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size + int64(len(l.buf))
}

// rewriteChunk is Rewrite's write buffer: the new file takes the records in
// writes of this size, not one per record.
const rewriteChunk = 64 << 10

// Rewrite replaces the whole log with the records emit produces — a
// compaction, a standby's bootstrap — by the crash-atomic sequence the
// MANIFEST is written with: the records go to path.tmp through a buffer, that
// file is fsynced and renamed over the log, and the directory is synced. A
// crash leaves the old log or the new one, each a valid prefix of records,
// never a mix.
//
// The caller has shut every appender out, and what is still staged is
// dropped with the old file: a compaction syncs it first (DB.syncStaged), a
// bootstrap replaces it, Reset discards it. Rewrite holds both locks across
// its I/O: nothing can be appended, let alone made durable and acknowledged,
// between the rename and the directory sync, where a crash may still
// resurrect the old log. An error before the rename leaves the log exactly as
// it was; an error at or after it poisons the log as a failed barrier does.
func (l *Log) Rewrite(emit func(add func(rec []byte) error) error) error {
	l.bmu.Lock()
	defer l.bmu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	var size int64
	if err := replaceFile(l.fs, l.path, func(f File) error {
		w := bufio.NewWriterSize(f, rewriteChunk)
		var enc []byte
		if err := emit(func(rec []byte) error {
			if err := checkRecord(rec); err != nil {
				return err
			}
			enc = appendFrame(enc[:0], rec)
			size += int64(len(enc))
			_, err := w.Write(enc)
			return err
		}); err != nil {
			return err
		}
		return w.Flush()
	}); err != nil {
		return err
	}
	var err error
	if !MutantRewriteNoDirSync {
		err = l.fs.SyncDir(filepath.Dir(l.path))
	}
	var f File
	if err == nil {
		f, err = l.fs.OpenFile(l.path, os.O_RDWR, 0o644)
	}
	if err != nil {
		l.poison(err)
		return l.err
	}
	l.f.Close() // the replaced file's handle
	l.f, l.size, l.base, l.alloc, l.buf = f, size, size, size, l.buf[:0]
	return nil
}

// Reset rewrites the log to empty, discarding staged records. Nothing in
// this module calls it: bench/ladder.go clears its scratch log with it
// between timed loops.
func (l *Log) Reset() error {
	return l.Rewrite(func(func([]byte) error) error { return nil })
}

// Close syncs the log, trims the pad and closes the file, so a cleanly
// closed log is exactly its records. The trim is not synced: a crash that
// loses it leaves pad, which the next open truncates. A poisoned log still
// closes its file but reports the poison error.
func (l *Log) Close() error {
	l.bmu.Lock()
	defer l.bmu.Unlock()
	_, err := l.barrier(nil)
	if err == nil && l.alloc > l.size {
		err = l.f.Truncate(l.size)
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// AtomicWriteFileFs atomically replaces path with data, fsyncing contents
// before the rename and the directory after it (the MANIFEST writer).
func AtomicWriteFileFs(fsys Fs, path string, data []byte) error {
	if err := replaceFile(fsys, path, func(f File) error {
		_, err := f.Write(data)
		return err
	}); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// replaceFile is the first half of the crash-atomic replacement sequence:
// write path.tmp via fill, fsync it, rename it over path. Contents are
// durable before the rename can be, so once the caller has fsynced the
// parent directory a crash leaves either the complete old file or the
// complete new one. An error means the rename did not happen: path is
// untouched and the temporary file is removed.
func replaceFile(fsys Fs, path string, fill func(f File) error) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = fill(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
	}
	return err
}
