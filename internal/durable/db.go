package durable

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"detectable/internal/keytab"
	"detectable/internal/runtime"
	"detectable/internal/rw"
	"detectable/internal/spec"
)

// DefaultCompactAt is the write-ahead log's compaction threshold: the anchor
// that finds this many bytes in the log beyond what its last rewrite wrote
// (the whole log, if it has not been rewritten since the open) compacts — the
// live state is written out as a fresh log that replaces the old one.
const DefaultCompactAt = 1 << 20

// manifestVersion is the on-disk layout this package reads and writes: a
// data directory is MANIFEST, LOCK and wal.log. Version 1 kept one
// shard-NNN.log per shard and a sessions.log, version 2 compacted into
// shard-NNN.snap and sessions.snap beside the log, version 3's put-at record
// carried no stamp; all are refused at open, not upgraded.
const manifestVersion = 4

// Record kinds. The write-ahead log holds recPutAt and the four session
// kinds.
const (
	recHello   = 0x02 // u64 sid, i64 pid — session opened
	recOutcome = 0x03 // u64 sid, u64 reqID, u32 len, reply — verdict persisted
	recEnd     = 0x04 // u64 sid — session closed
	recNextSID = 0x05 // u64 next — session-ID high-water mark
	recPutAt   = 0x06 // the putAt* layout below — a put journaled for a shard, stamped
)

// The put-at record: the shard the put was journaled for, the stamp that
// says whose effect it is, and the put, key then value. The stamp is the
// writer's request ID (0 for a put no request stamped — a compaction's, a
// test's — whose other stamp fields are 0 too), its process, the status and
// crash count of its verdict, and for an entry of an MPUT the entry's index
// and the batch's length (0 for a single PUT or DEL). Encoding, decoding and
// the replication stream's size check read these offsets and nothing else.
const (
	putAtSizeKind    = 1
	putAtSizeShard   = 4
	putAtSizeReqID   = 8
	putAtSizePID     = 4
	putAtSizeStatus  = 1
	putAtSizeCrashes = 4
	putAtSizeEntry   = 2
	putAtSizeBatch   = 2
	putAtSizeKeyLen  = 2
	putAtSizeVal     = 8
)

const (
	putAtOffsetKind    = 0
	putAtOffsetShard   = putAtOffsetKind + putAtSizeKind
	putAtOffsetReqID   = putAtOffsetShard + putAtSizeShard
	putAtOffsetPID     = putAtOffsetReqID + putAtSizeReqID
	putAtOffsetStatus  = putAtOffsetPID + putAtSizePID
	putAtOffsetCrashes = putAtOffsetStatus + putAtSizeStatus
	putAtOffsetEntry   = putAtOffsetCrashes + putAtSizeCrashes
	putAtOffsetBatch   = putAtOffsetEntry + putAtSizeEntry
	putAtOffsetKeyLen  = putAtOffsetBatch + putAtSizeBatch
	putAtOffsetKey     = putAtOffsetKeyLen + putAtSizeKeyLen
	// PutAtOverhead is a put-at record's size besides its key: the value
	// follows the key.
	PutAtOverhead = putAtOffsetKey + putAtSizeVal
)

// Stamp says whose effect a journaled put is, as the paper's register R
// persists ⟨v, q, b⟩ and not v alone, so that recovery can tell the writer
// its verdict from the persisted value itself: the process that wrote it
// and the detectable verdict of its operation — a runtime.Status and the
// crashes it observed, as integers — and, for an entry of a batch, the
// entry's index and the batch's length (Batch 0 for a single operation).
type Stamp struct {
	PID, Status, Crashes int
	Entry, Batch         int
}

// manifest pins the layout version and store geometry a data directory was
// created with. A reopen under different geometry is refused: shard routing
// (hash mod shards) and session process slots are only meaningful under the
// original one.
type manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
	Procs   int `json:"procs"`
	// Generation is the replication fencing generation (replicate.go):
	// 0 at creation, advanced durably by every promotion. A primary whose
	// generation is behind a replica's has been fenced.
	Generation uint64 `json:"generation,omitempty"`
}

// SessionState is one recovered session: its identity, leased process
// slot, high-water request ID and persisted outcome window.
type SessionState struct {
	SID   uint64
	PID   int
	MaxID uint64
	// Window is the window's outcomes in request order.
	Window []Outcome
}

// Outcome is one released verdict: a request ID and the encoded reply.
type Outcome struct {
	ID    uint64
	Reply []byte
}

// Reply returns the reply s's window holds for id, nil if none.
func (s SessionState) Reply(id uint64) []byte {
	for _, o := range s.Window {
		if o.ID == id {
			return o.Reply
		}
	}
	return nil
}

// shardFile is one shard's durable state: the key table (internal/keytab),
// whose journaled values are the mirror of the durable log — what a reopen
// recovers and the next compaction writes. Everything this layer keeps per
// key is one entry of that table, 32 pointer-free bytes with the reference to
// the key's name. mu orders the shard's puts in the write-ahead log and
// serializes the fold's writes to the table.
type shardFile struct {
	mu  sync.Mutex
	tab keytab.Table[entry]
	enc []byte // reusable put-at record scratch, guarded by mu
}

// entry is what one key of one shard holds. Code that needs the key's name
// as well (the read view's stage, view.go) holds the entry's number in the
// table and asks the table for both.
type entry struct {
	// journaled is the value of the key's last put-at record the fold has
	// taken — durable, in log order — meaningful once inLog is set: what
	// compaction, the bootstrap, RangeShard, StateHash and MirrorGet read.
	// Guarded by the shard's mu.
	journaled int64
	// applied is the value the read view shows for the key, valid while
	// viewGen equals the view's generation (view.go). Written only by
	// DB.publishThrough and DB.Lead.
	applied atomic.Int64
	viewGen atomic.Uint32
	inLog   bool // journaled holds a value; guarded by the shard's mu
}

// sessionsFile is the session layer's durable state. mu is the anchor lock:
// session records are appended to the write-ahead log, streamed to the
// standby, made durable and folded into the mirrors under it — and so is
// every put-at record an epoch made durable — so the mirrors hold durable
// records only and no session record is ever left staged when it is
// released.
type sessionsFile struct {
	mu    sync.Mutex
	state map[uint64]mirrored // by session ID
	// holders is, by pid, the session whose hello last leased the slot in
	// log order (0: none): the session a stamp of that pid belongs to, if
	// it has not ended.
	holders []uint64
	nextSID uint64
	window  int
	reply   []byte // noteStamp's scratch
}

// mirrored is one live session of the mirror.
type mirrored struct {
	pid    int
	window *Window
}

// DB is one open durable data directory: the write-ahead log and the mirrors
// of what it holds. It implements the commit protocol of
// docs/DURABILITY.md: mutations are journaled into the log as they
// linearize, each put-at record stamped with its writer's request and
// verdict; a reply those stamps carry (StampsCarry) commits by a bare
// barrier, any other is an outcome record appended behind the puts it
// depends on; and recovery accepts only a valid prefix of the log — so no
// released verdict can outlive its effect across a crash, and no surviving
// effect loses its verdict.
type DB struct {
	fs        Fs
	dir       string
	unlock    func() // releases the exclusive lock on the data directory
	wal       *Log
	shards    []*shardFile
	sessions  sessionsFile
	calls     []atomic.Uint64 // by pid: the request ID its puts are stamped with (BeginRequest)
	procs     int
	compactAt int64
	gc        groupCommit
	repl      replState     // primary/backup replication hub (replicate.go)
	view      viewState     // the read view every GET on this node reads (view.go)
	gen       atomic.Uint64 // fencing generation mirrored from the MANIFEST
}

// Open opens the data directory at dir on the real filesystem. See OpenFs.
func Open(dir string, shards, procs, window int) (*DB, error) {
	return OpenFs(OS, dir, shards, procs, window)
}

// OpenFs opens (creating if needed) the data directory at dir for a store
// of the given geometry, recovering all shard state and session windows
// from one scan of the write-ahead log. A torn or corrupted log tail is
// truncated to the last valid prefix, and the temporary file a crash left
// behind mid-compaction — as large as the state — is removed. window bounds
// each recovered session's outcome window (use server.Window). Reopening a
// directory created under a different geometry is an error. All I/O goes
// through fsys — the OS for real deployments, internal/simio's simulated
// filesystem under the crash-prefix model checker.
func OpenFs(fsys Fs, dir string, shards, procs, window int) (*DB, error) {
	if shards < 1 || procs < 1 {
		return nil, fmt.Errorf("durable: need shards ≥ 1 and procs ≥ 1 (got %d, %d)", shards, procs)
	}
	if window < 1 {
		return nil, fmt.Errorf("durable: need window ≥ 1 (got %d)", window)
	}
	if err := mkdirAllSynced(fsys, dir); err != nil {
		return nil, err
	}
	unlock, err := fsys.Lock(dir)
	if err != nil {
		return nil, err
	}
	gen, err := checkManifest(fsys, dir, shards, procs)
	if err != nil {
		unlock()
		return nil, err
	}

	db := &DB{fs: fsys, dir: dir, unlock: unlock, procs: procs, compactAt: DefaultCompactAt}
	db.gc.cond.L = &db.gc.mu
	db.gen.Store(gen)
	db.view.gen.Store(1) // a fresh entry's zero viewGen is never current
	db.sessions = sessionsFile{state: make(map[uint64]mirrored), holders: make([]uint64, procs), window: window}
	db.calls = make([]atomic.Uint64, procs)
	for i := 0; i < shards; i++ {
		db.shards = append(db.shards, &shardFile{})
	}
	for _, name := range []string{"wal.log.tmp", "MANIFEST.tmp"} {
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			unlock()
			return nil, err
		}
	}
	if db.wal, err = OpenLogFs(fsys, filepath.Join(dir, "wal.log"), db.foldLocked); err != nil {
		unlock()
		return nil, err
	}
	db.wal.tap = db.repl.tapRecords
	return db, nil
}

// fold is foldLocked for a DB in service: DB.anchor folds the batch it made
// durable with sessions.mu held, and a put takes its shard's lock.
func (db *DB) fold(rec []byte) error {
	if rec[0] == recPutAt {
		sf := db.shards[binary.BigEndian.Uint32(rec[putAtOffsetShard:])]
		sf.mu.Lock()
		defer sf.mu.Unlock()
	}
	return db.foldLocked(rec)
}

// foldLocked folds one durable record into the mirrors, the one path every
// record takes, in log order: at open (OpenLogFs), after its barrier (fold,
// compact, Subscribe) and in a bootstrap (install). A session record goes
// into the sessions mirror; a put into its key, its stamp into its writer's
// window (noteStamp) and, where view.stages is set, its entry into the stage.
// Called with the put's shard's mu and sessions.mu held, or before the DB is
// shared.
func (db *DB) foldLocked(rec []byte) error {
	if rec[0] != recPutAt {
		return db.sessions.apply(rec)
	}
	p, err := decodePutAt(rec, len(db.shards), db.procs)
	if err != nil {
		return err
	}
	n := db.shards[p.shard].set(p.key, p.val)
	db.sessions.noteStamp(p.stamp)
	if v := &db.view; v.stages {
		v.mu.Lock()
		v.stage = append(v.stage, viewPut{shard: uint32(p.shard), n: n, val: p.val})
		v.mu.Unlock()
	}
	return nil
}

// checkManifest creates the geometry manifest on first open and verifies
// it on every later one, returning the fencing generation it records.
func checkManifest(fsys Fs, dir string, shards, procs int) (uint64, error) {
	path := filepath.Join(dir, "MANIFEST")
	data, err := fsys.ReadFile(path)
	if os.IsNotExist(err) {
		data, _ = json.Marshal(manifest{Version: manifestVersion, Shards: shards, Procs: procs})
		return 0, AtomicWriteFileFs(fsys, path, append(data, '\n'))
	}
	if err != nil {
		return 0, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, fmt.Errorf("durable: corrupt MANIFEST in %s: %w", dir, err)
	}
	if m.Version != manifestVersion {
		return 0, fmt.Errorf("durable: %s is a version %d data directory, this build reads and writes version %d only (every record in one wal.log, each put stamped with whose effect it is; versions 1 and 2 kept some records in other files, version 3 stamped no put) and has no upgrader",
			dir, m.Version, manifestVersion)
	}
	if m.Shards != shards || m.Procs != procs {
		return 0, fmt.Errorf("durable: %s was created with shards=%d procs=%d, refusing to open with shards=%d procs=%d",
			dir, m.Shards, m.Procs, shards, procs)
	}
	return m.Generation, nil
}

// NumShards returns the shard count.
func (db *DB) NumShards() int { return len(db.shards) }

// Procs returns the process-slot count the directory was created for.
func (db *DB) Procs() int { return db.procs }

// SetCompactThreshold overrides the write-ahead log's compaction threshold,
// for tests that want compactions after a handful of records.
func (db *DB) SetCompactThreshold(bytes int64) { db.compactAt = bytes }

// set mirrors key := val and returns the number of key's entry, inserting
// it on the key's first use. Called by the fold, with sf.mu held (recovery
// runs before the DB is shared).
func (sf *shardFile) set(key string, val int64) uint32 {
	n, e := sf.tab.Lookup(key)
	if e == nil {
		n, e = sf.tab.Insert(key, entry{})
	}
	e.journaled, e.inLog = val, true
	return n
}

// stamp is a put-at record's stamp: the request ID its writer's session
// published (BeginRequest) and what Stamp says of the write. The zero
// stamp stamps nothing.
type stamp struct {
	reqID uint64
	Stamp
}

// putAt is a decoded put-at record.
type putAt struct {
	shard int
	key   string
	val   int64
	stamp
}

// encodePutAt appends the write-ahead-log form of a put: the putAt* layout.
func encodePutAt(dst []byte, shard int, key string, val int64, s stamp) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, putAtOffsetKey)...)
	h := dst[start:]
	h[putAtOffsetKind] = recPutAt
	binary.BigEndian.PutUint32(h[putAtOffsetShard:], uint32(shard))
	binary.BigEndian.PutUint64(h[putAtOffsetReqID:], s.reqID)
	binary.BigEndian.PutUint32(h[putAtOffsetPID:], uint32(s.PID))
	h[putAtOffsetStatus] = byte(s.Status)
	binary.BigEndian.PutUint32(h[putAtOffsetCrashes:], uint32(s.Crashes))
	binary.BigEndian.PutUint16(h[putAtOffsetEntry:], uint16(s.Entry))
	binary.BigEndian.PutUint16(h[putAtOffsetBatch:], uint16(s.Batch))
	binary.BigEndian.PutUint16(h[putAtOffsetKeyLen:], uint16(len(key)))
	dst = append(dst, key...)
	return binary.BigEndian.AppendUint64(dst, uint64(val))
}

// readStamp reads the stamp of a put-at record this node encoded or
// decodePutAt accepted.
func readStamp(rec []byte) stamp {
	return stamp{
		reqID: binary.BigEndian.Uint64(rec[putAtOffsetReqID:]),
		Stamp: Stamp{
			PID:     int(binary.BigEndian.Uint32(rec[putAtOffsetPID:])),
			Status:  int(rec[putAtOffsetStatus]),
			Crashes: int(binary.BigEndian.Uint32(rec[putAtOffsetCrashes:])),
			Entry:   int(binary.BigEndian.Uint16(rec[putAtOffsetEntry:])),
			Batch:   int(binary.BigEndian.Uint16(rec[putAtOffsetBatch:])),
		},
	}
}

// decodePutAt decodes a put-at record and checks it against the geometry:
// a record for a shard this store does not have is refused, and so is a
// value no register of a procs-process store can hold (rw.DomainOf) — a
// build that accepted any int64 may have journaled one — and a stamp no
// verdict can be rebuilt from, at recovery as on the replication stream, so
// none of them reaches a log or a restore. It does not copy: key aliases rec
// and is valid only as long as rec's bytes are. Every caller hands it to the
// key table, which copies the bytes of a key it inserts.
func decodePutAt(rec []byte, shards, procs int) (p putAt, err error) {
	if len(rec) < PutAtOverhead || rec[putAtOffsetKind] != recPutAt {
		return p, fmt.Errorf("malformed put-at record")
	}
	n := int(binary.BigEndian.Uint16(rec[putAtOffsetKeyLen:]))
	if len(rec) != PutAtOverhead+n {
		return p, fmt.Errorf("malformed put-at record")
	}
	s := binary.BigEndian.Uint32(rec[putAtOffsetShard:])
	if s >= uint32(shards) {
		return p, fmt.Errorf("put-at record for shard %d of %d", s, shards)
	}
	p.shard = int(s)
	if n > 0 {
		p.key = unsafe.String(&rec[putAtOffsetKey], n)
	}
	p.val = int64(binary.BigEndian.Uint64(rec[putAtOffsetKey+n:]))
	if dom := rw.DomainOf(procs); !dom.Contains(int(p.val)) {
		return p, fmt.Errorf("put-at record holds %d for key %q, outside the value domain %v of a %d-process store", p.val, p.key, dom, procs)
	}
	p.stamp = readStamp(rec)
	switch st := runtime.Status(p.Status); {
	case p.reqID == 0 && p.Stamp != Stamp{}:
		err = fmt.Errorf("carries stamp fields %+v without a request ID", p.Stamp)
	case p.reqID == 0:
	case p.PID >= procs:
		err = fmt.Errorf("is stamped by process %d of %d", p.PID, procs)
	case !st.Linearized():
		err = fmt.Errorf("is stamped %v, a verdict that journals nothing", st)
	case p.Batch == 0 && p.Entry != 0 || p.Batch > 0 && p.Entry >= p.Batch:
		err = fmt.Errorf("is stamped as entry %d of a batch of %d", p.Entry, p.Batch)
	}
	if err != nil {
		return p, fmt.Errorf("put-at record for key %q %w", p.key, err)
	}
	return p, nil
}

// RangeShard calls fn for every durable root recovered in shard i, in
// sorted key order (deterministic restores make recovery idempotence
// testable).
func (db *DB) RangeShard(i int, fn func(key string, val int64)) {
	sf := db.shards[i]
	sf.mu.Lock()
	roots := sf.sorted()
	sf.mu.Unlock()
	for _, r := range roots {
		fn(r.key, r.val)
	}
}

// ShardBacking is one shard's share of the write-ahead log: Journal
// journals one durable root, stamped, and DB.Sync is its durability
// barrier. shardkv's Durable option gives each shard its own.
type ShardBacking struct {
	db *DB
	i  int
}

// ShardBacking returns shard i's share of the write-ahead log.
func (db *DB) ShardBacking(i int) ShardBacking { return ShardBacking{db: db, i: i} }

// Journal appends one persisted root to the write-ahead log, buffered until
// the next barrier, stamped with by and the request by.PID's session
// published (BeginRequest) — unstamped if it published none.
func (b ShardBacking) Journal(key string, val int64, by Stamp) {
	s := stamp{reqID: b.db.calls[by.PID].Load()}
	if s.reqID != 0 {
		s.Stamp = by
	}
	b.db.journalPut(b.i, key, val, s)
}

// Persist appends one persisted root to the write-ahead log with no stamp —
// no request's verdict rides it — buffered until the next barrier: a put
// journaled outside a session, as the benchmark ladder and tests do.
func (b ShardBacking) Persist(key string, val int64) { b.db.journalPut(b.i, key, val, stamp{}) }

// BeginRequest publishes the ID of the request process pid is about to
// execute: the puts it journals until the next call are stamped with it, so
// the record of an effect says whose effect it is and recovery rebuilds the
// request's verdict from it (noteStamp). 0 stamps nothing. Called by the
// session that holds pid, before it executes the request.
func (db *DB) BeginRequest(pid int, reqID uint64) { db.calls[pid].Store(reqID) }

// journalPut stages a put-at record for shard i in the write-ahead log — no
// disk, no mirror: the put reaches its key when the fold after its barrier
// takes it. sf.mu orders the shard's puts in the log and is what lockAll takes
// to shut journaling out. The caller's key may alias a transient buffer (the
// server decodes keys zero-copy out of the frame); the record copies it.
func (db *DB) journalPut(i int, key string, val int64, s stamp) {
	sf := db.shards[i]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	sf.enc = encodePutAt(sf.enc[:0], i, key, val, s)
	if err := db.wal.Append(sf.enc); err != nil {
		// The append never reached the log, so no later Sync can make the
		// verdict durable. This is the one unrecoverable case; fail loudly
		// rather than serve non-durable verdicts as durable.
		panic(fmt.Sprintf("durable: shard %d append failed: %v", i, err))
	}
}

// root is one key of the mirror and the value journaled for it. The key is
// the table's own copy of the name (keytab.Table.Name), so it costs nothing.
type root struct {
	key string
	val int64
}

// sorted returns the mirror — the entries holding a journaled value — in
// key order, the one order every walk of a shard uses (compaction and
// bootstrap, restore), so each is a deterministic function of the state.
// Called with sf.mu held.
func (sf *shardFile) sorted() []root {
	roots := make([]root, 0, sf.tab.Len())
	for n, e := range sf.tab.All() {
		if e.inLog {
			roots = append(roots, root{sf.tab.Name(n), e.journaled})
		}
	}
	slices.SortFunc(roots, func(a, b root) int { return strings.Compare(a.key, b.key) })
	return roots
}

// emit yields the mirror of sf, shard i, as put-at records in key order to
// fn, stopping at fn's first error: the shard's part of emitState. Called
// with sf.mu held; fn must not retain rec.
func (sf *shardFile) emit(i int, fn func(rec []byte) error) error {
	for _, r := range sf.sorted() {
		sf.enc = encodePutAt(sf.enc[:0], i, r.key, r.val, stamp{})
		if err := fn(sf.enc); err != nil {
			return err
		}
	}
	return nil
}

// ---- sessions ----

// parseSessRec decodes one session record, checking its shape: the one
// decoder behind recovery, the live commit path and the replication stream.
// sid is the session (for recNextSID, the mark), pid is a hello's process
// slot, req and reply an outcome's; reply aliases rec.
func parseSessRec(rec []byte) (kind byte, sid, req uint64, pid int, reply []byte, err error) {
	if len(rec) < 1 {
		return 0, 0, 0, 0, nil, fmt.Errorf("empty session record")
	}
	kind = rec[0]
	want := 1 + 8
	switch kind {
	case recHello:
		want = 1 + 8 + 8
	case recOutcome:
		if want = 1 + 8 + 8 + 4; len(rec) >= want {
			want += int(binary.BigEndian.Uint32(rec[17:]))
		}
	case recEnd, recNextSID:
	default:
		return 0, 0, 0, 0, nil, fmt.Errorf("unexpected session record kind 0x%02x", kind)
	}
	if len(rec) != want {
		return 0, 0, 0, 0, nil, fmt.Errorf("malformed session record of kind 0x%02x: %d bytes, want %d", kind, len(rec), want)
	}
	sid = binary.BigEndian.Uint64(rec[1:])
	switch kind {
	case recHello:
		pid = int(int64(binary.BigEndian.Uint64(rec[9:])))
	case recOutcome:
		req, reply = binary.BigEndian.Uint64(rec[9:]), rec[21:]
	}
	return kind, sid, req, pid, reply, nil
}

// apply folds one session record into the mirror. Hello records are
// idempotent and outcome records last-wins.
func (ss *sessionsFile) apply(rec []byte) error {
	kind, sid, req, pid, reply, err := parseSessRec(rec)
	if err != nil {
		return err
	}
	switch kind {
	case recHello:
		ss.nextSID = max(ss.nextSID, sid)
		s, ok := ss.state[sid]
		if !ok {
			s = mirrored{pid: pid, window: NewWindow(ss.window)}
			ss.state[sid] = s
		}
		if s.pid >= 0 && s.pid < len(ss.holders) {
			ss.holders[s.pid] = sid
		}
	case recNextSID:
		ss.nextSID = max(ss.nextSID, sid)
	case recOutcome:
		// An outcome for an absent session (END raced the outcome into the
		// log, or the hello sits past a truncated prefix) is ignorable.
		ss.noteOutcome(sid, req, reply)
	case recEnd:
		delete(ss.state, sid)
	}
	return nil
}

// noteStamp rebuilds the verdict a stamped put-at record carries into the
// window of the session that held its pid at that point of the log — the
// last hello for the pid ahead of it; a stamp no hello stands ahead of is
// ignored, like an outcome for an absent session. A PUT or DEL gets its
// reply back byte for byte (a write responds spec.Ack). An MPUT entry's
// verdict goes into its slot of the request's reply, which the first of
// its stamps to arrive starts as every entry failed: an MPUT whose outcome
// record was torn off answers its stamped entries' verdicts and failed for
// the rest, at the request's length, and the outcome record, where it
// survived, follows its stamps and overrides them. Must be called with
// ss.mu held.
func (ss *sessionsFile) noteStamp(s stamp) {
	if s.reqID == 0 {
		return
	}
	sid := ss.holders[s.PID]
	m, ok := ss.state[sid]
	if !ok {
		return
	}
	v := runtime.Outcome[int]{Status: runtime.Status(s.Status), Resp: spec.Ack, Crashes: s.Crashes}
	if s.Batch == 0 {
		ss.reply = AppendReply(ss.reply[:0], v)
		ss.noteOutcome(sid, s.reqID, ss.reply)
		return
	}
	reply, _, held := m.window.Lookup(s.reqID)
	if !held || len(reply) != batchReplyHeader+VerdictSize*s.Batch {
		ss.reply = binary.BigEndian.AppendUint16(append(ss.reply[:0], ReplyOK), uint16(s.Batch))
		for range s.Batch {
			ss.reply = AppendVerdict(ss.reply, runtime.Outcome[int]{Status: runtime.StatusFailed})
		}
		ss.noteOutcome(sid, s.reqID, ss.reply)
		if reply, _, held = m.window.Lookup(s.reqID); !held {
			return // fell out of the window at once
		}
	}
	// The entry's verdict goes into the window's own copy of the reply, in
	// place: a batch's stamps cost a verdict each, not a reply each.
	AppendVerdict(reply[:batchReplyHeader+VerdictSize*s.Entry], v)
}

// StampsCarry reports whether the stamps of the put-at records a write
// journaled carry reply, its AppendReply or AppendBatchReply, so a bare
// barrier commits it (Sync) and noteStamp rebuilds it byte for byte. They do
// when every verdict in it linearized: a PUT's or DEL's one, each entry's of
// an MPUT, none of an empty MPUT, which leaves nothing to replay and runs
// fresh to the same reply. A failed operation journals nothing and its crash
// count is in no stamp, so its reply commits as an outcome record
// (CommitOutcome).
func StampsCarry(reply []byte) bool {
	verdicts := reply[1:] // a PUT's or DEL's one verdict
	if len(reply) != 1+VerdictSize {
		verdicts = reply[batchReplyHeader:] // an MPUT's, behind the count
	}
	for ; len(verdicts) > 0; verdicts = verdicts[VerdictSize:] {
		if !runtime.Status(verdicts[0]).Linearized() {
			return false
		}
	}
	return true
}

// noteOutcome folds one (sid, reqID, reply) verdict into the session's
// window (Window states the rules). The single definition keeps live
// commits, recovery replay and the standby in lockstep. Must be called with
// ss.mu held.
func (ss *sessionsFile) noteOutcome(sid, reqID uint64, reply []byte) {
	if s, ok := ss.state[sid]; ok {
		s.window.Note(reqID, reply, false)
	}
}

// Sessions returns every live session of the mirror, sorted by session ID.
// The replies alias the mirror's windows: they hold until the session's
// next outcome, so read them while the DB commits nothing (recovery,
// promotion, a test between steps).
func (db *DB) Sessions() []SessionState {
	ss := &db.sessions
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]SessionState, 0, len(ss.state))
	for _, sid := range slices.Sorted(maps.Keys(ss.state)) {
		s := ss.state[sid]
		st := SessionState{SID: sid, PID: s.pid, MaxID: s.window.Max()}
		for id, reply := range s.window.All() {
			st.Window = append(st.Window, Outcome{id, reply})
		}
		out = append(out, st)
	}
	return out
}

// WindowSize returns the outcome window bound the DB was opened with.
func (db *DB) WindowSize() int { return db.sessions.window }

// NextSID returns the session-ID high-water mark: every ID ever issued is
// ≤ it, so the server resumes numbering above it.
func (db *DB) NextSID() uint64 {
	db.sessions.mu.Lock()
	defer db.sessions.mu.Unlock()
	return db.sessions.nextSID
}

// stageOutcome appends the framed (sid, reqID, reply) outcome record to
// dst, encoded in place.
func stageOutcome(dst []byte, sid, reqID uint64, reply []byte) []byte {
	start := len(dst)
	return sealFrame(appendOutcomeRec(append(dst, make([]byte, frameHeader)...), sid, reqID, reply), start)
}

// stageSID appends a framed kind + sid record (recEnd, recNextSID) to dst.
func stageSID(dst []byte, kind byte, sid uint64) []byte {
	start := len(dst)
	dst = append(append(dst, make([]byte, frameHeader)...), kind)
	return sealFrame(binary.BigEndian.AppendUint64(dst, sid), start)
}

// anchor makes one epoch durable (groupcommit.go; the epoch's leader is its
// one caller): recs — framed records, possibly none — are staged behind every
// put journaled so far and the log is made durable with one write and one
// fsync. Recovery accepts only a valid prefix of the log, so an outcome on
// disk implies the puts ahead of it are on disk. The batch and the epoch's
// barrier go to the replication tap before the fsync starts, so a standby
// fsyncs the epoch while this node does; once the fsync has returned, the
// whole batch is folded into the mirrors in log order (fold) — it is intact
// until the next barrier, which needs sessions.mu, held here — and the commit
// mark follows, and anchor returns once every gating standby has acknowledged
// the barrier, publishing the epoch to readers then on a node that leads (in
// sequence order: anchors run one at a time). The anchor that finds the
// threshold's worth of bytes appended to the log compacts it.
func (db *DB) anchor(recs []byte) error {
	ss := &db.sessions
	ss.mu.Lock()
	lead := db.view.lead
	var held []byte
	if MutantOutcomeFirst {
		held = db.wal.holdBack()
	}
	err := db.wal.stageFramed(recs)
	var seq uint64
	var batch []byte
	if err == nil {
		// Every barrier sequence is allocated under ss.mu, so barriers sit on
		// the stream in sequence order, each behind its batch and followed by
		// its commit mark.
		seq = db.repl.seq.Add(1)
		batch, err = db.wal.syncMarked(func() { db.repl.tapBarrier(seq) })
	}
	if err == nil {
		err = eachFrame(batch, db.fold)
	}
	if MutantOutcomeFirst && err == nil {
		if err = db.wal.stageFramed(held); err == nil {
			if batch, err = db.wal.syncMarked(nil); err == nil {
				err = eachFrame(batch, db.fold)
			}
		}
	}
	if err == nil {
		if lead {
			db.holdView(seq)
		}
		db.repl.tapCommit(seq)
	}
	if err != nil {
		ss.mu.Unlock()
		return err
	}
	full := db.wal.Appended() >= db.compactAt
	ss.mu.Unlock()
	if full {
		// An explicit Compact may rewrite the log before this one takes
		// its locks; compact re-tests under them, so only one rewrites. The
		// epoch is durable already: a failed rewrite leaves the old log whole
		// for the next full epoch to retry, or poisons it for the next commit.
		if err := db.compact(db.compactAt); err != nil {
			slog.Warn("durable: write-ahead log compaction failed", "path", db.wal.path, "cause", err)
		}
	}
	db.repl.waitBarrier(seq)
	if lead {
		db.publishThrough(seq)
	}
	return nil
}

// AppendHello durably records a new session (sid, pid) — synced before
// returning, so a client never holds a session ID a restart would forget.
func (db *DB) AppendHello(sid uint64, pid int) error {
	return db.commit(func(recs []byte) []byte {
		start := len(recs)
		recs = append(append(recs, make([]byte, frameHeader)...), recHello)
		recs = binary.BigEndian.AppendUint64(recs, sid)
		return sealFrame(binary.BigEndian.AppendUint64(recs, uint64(int64(pid))), start)
	})
}

// NoteSID durably raises the session-ID high-water mark to at least sid
// without recording a recoverable session — used for observer sessions,
// which hold no slot and no window but whose IDs must still never be
// reissued after a restart (a stale observer resuming a recycled ID would
// attach to a stranger's session).
func (db *DB) NoteSID(sid uint64) error {
	if sid <= db.NextSID() {
		return nil
	}
	return db.commit(func(recs []byte) []byte { return stageSID(recs, recNextSID, sid) })
}

// AppendEnd durably records the end of session sid, releasing it from
// future recoveries.
func (db *DB) AppendEnd(sid uint64) error {
	return db.commit(func(recs []byte) []byte { return stageSID(recs, recEnd, sid) })
}

// CommitOutcome makes one released verdict durable: the (sid, reqID, reply)
// outcome record goes into the write-ahead log behind the effects already
// journaled there and the log is synced. The position is the durability
// contract: an outcome record on disk implies its effects are on disk, so a
// replayed verdict never promises a lost write. Returns only after the
// barrier of the epoch the commit rode, which it shares with every other
// durable step in flight (groupcommit.go).
func (db *DB) CommitOutcome(sid, reqID uint64, reply []byte) error {
	return db.commit(func(recs []byte) []byte { return stageOutcome(recs, sid, reqID, reply) })
}

// appendOutcomeRec appends one encoded recOutcome payload to dst.
func appendOutcomeRec(dst []byte, sid, reqID uint64, reply []byte) []byte {
	dst = append(dst, recOutcome)
	dst = binary.BigEndian.AppendUint64(dst, sid)
	dst = binary.BigEndian.AppendUint64(dst, reqID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(reply)))
	return append(dst, reply...)
}

// emit yields the sessions state as records — the next-SID high-water
// mark, then per live session in SID order its hello and its window's
// outcomes in request order — to fn, stopping at fn's first error: the
// sessions' part of emitState. Called with ss.mu held; fn must not retain
// rec.
func (ss *sessionsFile) emit(fn func(rec []byte) error) error {
	enc := binary.BigEndian.AppendUint64([]byte{recNextSID}, ss.nextSID)
	if err := fn(enc); err != nil {
		return err
	}
	for _, sid := range slices.Sorted(maps.Keys(ss.state)) {
		s := ss.state[sid]
		enc = append(enc[:0], recHello)
		enc = binary.BigEndian.AppendUint64(enc, sid)
		enc = binary.BigEndian.AppendUint64(enc, uint64(int64(s.pid)))
		if err := fn(enc); err != nil {
			return err
		}
		for id, reply := range s.window.All() {
			enc = appendOutcomeRec(enc[:0], sid, id, reply)
			if err := fn(enc); err != nil {
				return err
			}
		}
	}
	return nil
}

// Compact rewrites the write-ahead log as the state it adds up to
// (emitState). It holds lockAll, so nothing is staged or anchored meanwhile,
// and it first makes any put still staged durable in the old log
// (syncStaged), so the new log holds everything the old one did. A crash on
// the way leaves the old log or the new one (Log.Rewrite), and they recover
// to the same state.
func (db *DB) Compact() error { return db.compact(0) }

// compact is Compact once Log.Appended has reached threshold, tested under
// Compact's locks.
func (db *DB) compact(threshold int64) error {
	defer db.lockAll()()
	if db.wal.Appended() < threshold {
		return nil
	}
	start, before := time.Now(), db.wal.length()
	if err := db.syncStaged(); err != nil {
		return err
	}
	if err := db.wal.Rewrite(db.emitState); err != nil {
		return err
	}
	slog.Info("durable: write-ahead log compacted", "path", db.wal.path,
		"bytes_before", before, "bytes_after", db.wal.length(), "duration", time.Since(start))
	return nil
}

// syncStaged is the barrier every holder of lockAll runs before it reads the
// mirrors as the log's state (compact, Subscribe): the records staged since
// the last barrier are synced — free on a clean log — and their batch goes to
// the subscribers attached and into the mirrors, so nothing reaches the
// mirrors before it is durable. Called under lockAll.
func (db *DB) syncStaged() error {
	batch, err := db.wal.syncMarked(nil)
	if err == nil {
		err = eachFrame(batch, db.foldLocked)
	}
	return err
}

// lockAll takes the sessions lock, then every shard's lock in index order —
// the order DB.anchor's fold takes them in — and returns the function that
// releases them: in between nothing is journaled, anchored, folded or tapped.
func (db *DB) lockAll() (unlock func()) {
	db.sessions.mu.Lock()
	for _, sf := range db.shards {
		sf.mu.Lock()
	}
	return func() {
		for _, sf := range db.shards {
			sf.mu.Unlock()
		}
		db.sessions.mu.Unlock()
	}
}

// emitState yields the state the log adds up to as records to fn, stopping
// at fn's first error: every shard's mirror as put-at records in shard and
// key order, then the sessions mirror, an outcome behind the puts it depends
// on. It is what a compaction writes and what a bootstrap carries
// (replicate.go). Called under lockAll; fn must not retain rec.
func (db *DB) emitState(fn func(rec []byte) error) error {
	for i, sf := range db.shards {
		if err := sf.emit(i, fn); err != nil {
			return err
		}
	}
	return db.sessions.emit(fn)
}

// StateHash returns a canonical SHA-256 digest of everything recovery
// produces from a data directory: every shard's key→value mirror, every
// live session with its leased slot and outcome window (whose last ID is
// its high-water mark), and the session-ID high-water mark. It hashes the
// records a compaction would write (emitState), in their fixed order, each
// length-prefixed so distinct states can never collide by concatenation.
// The mirrors hold durable records only, so on a live DB it is the digest a
// reopen of its durable image produces.
//
// This is the deterministic-step/state-hash idiom (Cannon's MIPS state
// root, transplanted to recovery): because the hash is a pure function of
// the logical state, "recovery is a pure function of the byte image" and
// "replay is idempotent" become single hash comparisons instead of
// spot-checks. The crash-prefix sweep (internal/simio) recovers every crash
// image twice and re-recovers the recovered image, requiring all three
// hashes equal; the restart harnesses compare hashes across real process
// incarnations.
func (db *DB) StateHash() string {
	h, size := sha256.New(), make([]byte, 4)
	defer db.lockAll()()
	db.emitState(func(rec []byte) error { //nolint:errcheck // fn never fails
		binary.BigEndian.PutUint32(size, uint32(len(rec)))
		h.Write(size)
		h.Write(rec)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// Sync is the durability barrier without a record: every mutation
// journaled before the call is durable (on the standby too) when it
// returns. A clean log costs no fsync.
func (db *DB) Sync() error { return db.commit(nil) }

// Close syncs and closes the log. The DB must not be used afterwards.
func (db *DB) Close() error {
	err := db.wal.Close()
	db.unlock()
	return err
}
