package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultCompactAt is the per-log byte threshold past which the next
// append triggers a compaction: the live state is written to a fresh
// snapshot and the log is reset.
const DefaultCompactAt = 1 << 20

// Record kinds. Shard logs and shard snapshots hold only recPut; the
// sessions log holds the session-lifecycle kinds, and the sessions
// snapshot additionally a recNextSID high-water mark.
const (
	recPut     = 0x01 // u16 key, i64 val — one durable root persisted
	recHello   = 0x02 // u64 sid, i64 pid — session opened
	recOutcome = 0x03 // u64 sid, u64 reqID, u32 len, reply — verdict persisted
	recEnd     = 0x04 // u64 sid — session closed
	recNextSID = 0x05 // u64 next — session-ID high-water mark
)

// manifest pins the store geometry a data directory was created with. A
// reopen under different geometry is refused: shard routing (hash mod
// shards) and session process slots are only meaningful under the original
// one.
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
// slot, and persisted outcome window.
type SessionState struct {
	SID   uint64
	PID   int
	MaxID uint64
	// Window maps request ID → the encoded reply released for it.
	Window map[uint64][]byte
}

// shardFile is one shard's durable state: the record log, the snapshot
// path, and the live key→value mirror the next compaction writes.
type shardFile struct {
	mu    sync.Mutex
	log   *Log
	snap  string
	state map[string]*int64 // see shardFile.set
	enc   []byte            // reusable put-record scratch, guarded by mu
}

// sessionsFile is the session layer's durable state.
type sessionsFile struct {
	mu      sync.Mutex
	log     *Log
	snap    string
	state   map[uint64]*SessionState
	nextSID uint64
	window  int
	enc     []byte
}

// DB is one open durable data directory: per-shard record logs and
// snapshots plus the sessions log. It implements the commit protocol of
// docs/DURABILITY.md: mutations are journaled into shard logs as they
// linearize, and CommitOutcome orders "shard records durable" strictly
// before "outcome record durable" so no released verdict can outlive its
// effect across a crash.
type DB struct {
	fs        Fs
	dir       string
	unlock    func() // releases the exclusive lock on the data directory
	shards    []*shardFile
	sessions  sessionsFile
	procs     int
	compactAt int64
	gc        groupCommit
	repl      replState     // primary/backup replication hub (replicate.go)
	view      replView      // replica read view, published per barrier (view.go)
	gen       atomic.Uint64 // fencing generation mirrored from the MANIFEST
}

// Open opens the data directory at dir on the real filesystem. See OpenFs.
func Open(dir string, shards, procs, window int) (*DB, error) {
	return OpenFs(OS, dir, shards, procs, window)
}

// OpenFs opens (creating if needed) the data directory at dir for a store
// of the given geometry, recovering all shard state and session windows
// from disk. Torn or corrupted log tails are truncated to the last valid
// prefix. window bounds each recovered session's outcome window (use
// server.Window). Reopening a directory created under a different
// geometry is an error. All I/O goes through fsys — the OS for real
// deployments, internal/simio's simulated filesystem under the
// crash-prefix model checker.
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
	db.gen.Store(gen)
	db.sessions = sessionsFile{
		snap:   filepath.Join(dir, "sessions.snap"),
		state:  make(map[uint64]*SessionState),
		window: window,
	}
	for i := 0; i < shards; i++ {
		sf := &shardFile{
			snap:  filepath.Join(dir, fmt.Sprintf("shard-%03d.snap", i)),
			state: make(map[string]*int64),
		}
		replay := func(rec []byte) error { return sf.apply(rec) }
		if err := ReplaySnapshotFs(fsys, sf.snap, replay); err != nil {
			db.closePartial()
			return nil, err
		}
		log, err := OpenLogFs(fsys, filepath.Join(dir, fmt.Sprintf("shard-%03d.log", i)), replay)
		if err != nil {
			db.closePartial()
			return nil, err
		}
		sf.log = log
		db.shards = append(db.shards, sf)
	}
	ss := &db.sessions
	replay := func(rec []byte) error { return ss.apply(rec) }
	if err := ReplaySnapshotFs(fsys, ss.snap, replay); err != nil {
		db.closePartial()
		return nil, err
	}
	log, err := OpenLogFs(fsys, filepath.Join(dir, "sessions.log"), replay)
	if err != nil {
		db.closePartial()
		return nil, err
	}
	ss.log = log
	return db, nil
}

// checkManifest creates the geometry manifest on first open and verifies
// it on every later one, returning the fencing generation it records.
func checkManifest(fsys Fs, dir string, shards, procs int) (uint64, error) {
	path := filepath.Join(dir, "MANIFEST")
	data, err := fsys.ReadFile(path)
	if os.IsNotExist(err) {
		data, _ = json.Marshal(manifest{Version: 1, Shards: shards, Procs: procs})
		return 0, AtomicWriteFileFs(fsys, path, append(data, '\n'))
	}
	if err != nil {
		return 0, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, fmt.Errorf("durable: corrupt MANIFEST in %s: %w", dir, err)
	}
	if m.Shards != shards || m.Procs != procs {
		return 0, fmt.Errorf("durable: %s was created with shards=%d procs=%d, refusing to open with shards=%d procs=%d",
			dir, m.Shards, m.Procs, shards, procs)
	}
	return m.Generation, nil
}

func (db *DB) closePartial() {
	for _, sf := range db.shards {
		if sf.log != nil {
			sf.log.Close()
		}
	}
	if db.sessions.log != nil {
		db.sessions.log.Close()
	}
	db.unlock()
}

// NumShards returns the number of shard logs.
func (db *DB) NumShards() int { return len(db.shards) }

// Procs returns the process-slot count the directory was created for.
func (db *DB) Procs() int { return db.procs }

// SetCompactThreshold overrides the per-log compaction threshold, for
// tests that want compactions after a handful of records.
func (db *DB) SetCompactThreshold(bytes int64) { db.compactAt = bytes }

// apply folds one shard record into the mirror.
func (sf *shardFile) apply(rec []byte) error {
	if len(rec) < 1 || rec[0] != recPut {
		return fmt.Errorf("unexpected shard record kind")
	}
	key, val, ok := decodePut(rec)
	if !ok {
		return fmt.Errorf("malformed put record")
	}
	sf.set(key, val, false) // decodePut's key is a fresh string
	return nil
}

// set mirrors key := val. transient says the key may alias a buffer the
// caller will reuse (journalPut's keys alias the connection's frame
// buffer). The mirror must never store such a key, and assigning to an
// existing string key of a Go map does store it: the runtime replaces the
// stored key with the new, equal one, which then turns to garbage with the
// next request, and the next snapshot writes it out. So values sit behind
// pointers: an existing entry is updated in place — no re-keying, no clone
// — and only a key's first put inserts, a clone if the key is transient.
func (sf *shardFile) set(key string, val int64, transient bool) {
	if p := sf.state[key]; p != nil {
		*p = val
		return
	}
	if transient {
		key = strings.Clone(key)
	}
	sf.state[key] = &val
}

func encodePut(dst []byte, key string, val int64) []byte {
	dst = append(dst, recPut)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(key)))
	dst = append(dst, key...)
	return binary.BigEndian.AppendUint64(dst, uint64(val))
}

func decodePut(rec []byte) (key string, val int64, ok bool) {
	if len(rec) < 3 {
		return "", 0, false
	}
	n := int(binary.BigEndian.Uint16(rec[1:]))
	if len(rec) != 3+n+8 {
		return "", 0, false
	}
	key = string(rec[3 : 3+n])
	val = int64(binary.BigEndian.Uint64(rec[3+n:]))
	return key, val, true
}

// RangeShard calls fn for every durable root recovered in shard i, in
// sorted key order (deterministic restores make recovery idempotence
// testable).
func (db *DB) RangeShard(i int, fn func(key string, val int64)) {
	sf := db.shards[i]
	sf.mu.Lock()
	keys := make([]string, 0, len(sf.state))
	for k := range sf.state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]int64, len(keys))
	for j, k := range keys {
		vals[j] = *sf.state[k]
	}
	sf.mu.Unlock()
	for j, k := range keys {
		fn(k, vals[j])
	}
}

// ShardBacking adapts one shard's record log to internal/nvm's Backing
// seam: Persist journals one durable root, Sync is that shard's
// durability barrier. Obtain one from DB.ShardBacking and hand it to
// nvm.Space.SetBacking.
type ShardBacking struct {
	db *DB
	i  int
}

// ShardBacking returns the backing-store view of shard i.
func (db *DB) ShardBacking(i int) ShardBacking { return ShardBacking{db: db, i: i} }

// Persist implements nvm.Backing: it appends one persisted root to the
// shard's log, buffered until the next Sync or CommitOutcome barrier.
func (b ShardBacking) Persist(key string, val int64) { b.db.journalPut(b.i, key, val) }

// Sync implements nvm.Backing.
func (b ShardBacking) Sync() error { return b.db.shards[b.i].log.Sync() }

// journalPut appends one persisted root to shard i's log and mirror,
// compacting when the log crosses the threshold. The caller's key may
// alias a transient buffer (the server decodes keys zero-copy out of the
// connection frame); the mirror clones it on first insert — the only place
// this layer retains a key — and never stores it afterwards (shardFile.set).
func (db *DB) journalPut(i int, key string, val int64) {
	sf := db.shards[i]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	sf.set(key, val, true)
	sf.enc = encodePut(sf.enc[:0], key, val)
	if err := sf.log.Append(sf.enc); err != nil {
		// The append never reached the file: the mirror and the log disagree
		// and no later Sync can make the verdict durable. This is the one
		// unrecoverable case; fail loudly rather than serve non-durable
		// verdicts as durable.
		panic(fmt.Sprintf("durable: shard %d append failed: %v", i, err))
	}
	db.repl.tapShard(i, sf.enc)
	if sf.log.Size() >= db.compactAt {
		if err := db.compactShardLocked(sf); err != nil {
			panic(fmt.Sprintf("durable: shard %d compaction failed: %v", i, err))
		}
	}
}

// writeSnapshot writes sf's mirror to a fresh snapshot, one put record per
// key in sorted order. Called with sf.mu held.
func (sf *shardFile) writeSnapshot(fsys Fs) error {
	return WriteSnapshotFs(fsys, sf.snap, func(emit func(rec []byte) error) error {
		keys := make([]string, 0, len(sf.state))
		for k := range sf.state {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := emit(encodePut(nil, k, *sf.state[k])); err != nil {
				return err
			}
		}
		return nil
	})
}

// compactShardLocked snapshots sf and resets its log. Called with sf.mu
// held; a crash between the snapshot rename and the reset merely replays
// records the snapshot already contains (puts are last-wins).
func (db *DB) compactShardLocked(sf *shardFile) error {
	if err := sf.writeSnapshot(db.fs); err != nil {
		return err
	}
	return sf.log.Reset()
}

// CompactShard forces a compaction of shard i, for tests and shutdown.
func (db *DB) CompactShard(i int) error {
	sf := db.shards[i]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	return db.compactShardLocked(sf)
}

// SyncShards is the all-shards durability barrier: every mutation
// journaled before the call is durable when it returns. Clean logs cost
// nothing.
func (db *DB) SyncShards() error {
	for i, sf := range db.shards {
		if err := sf.log.Sync(); err != nil {
			return fmt.Errorf("durable: sync shard %d: %w", i, err)
		}
	}
	return nil
}

// ---- sessions ----

// apply folds one session record into the mirror. Hello records are
// idempotent (a compaction crash can replay a log over a snapshot that
// already contains the session); outcome records are last-wins.
func (ss *sessionsFile) apply(rec []byte) error {
	if len(rec) < 1 {
		return fmt.Errorf("empty session record")
	}
	switch rec[0] {
	case recHello:
		if len(rec) != 1+8+8 {
			return fmt.Errorf("malformed hello record")
		}
		sid := binary.BigEndian.Uint64(rec[1:])
		pid := int(int64(binary.BigEndian.Uint64(rec[9:])))
		if sid > ss.nextSID {
			ss.nextSID = sid
		}
		if _, ok := ss.state[sid]; !ok {
			ss.state[sid] = &SessionState{SID: sid, PID: pid, Window: make(map[uint64][]byte)}
		}
	case recOutcome:
		if len(rec) < 1+8+8+4 {
			return fmt.Errorf("malformed outcome record")
		}
		sid := binary.BigEndian.Uint64(rec[1:])
		req := binary.BigEndian.Uint64(rec[9:])
		n := int(binary.BigEndian.Uint32(rec[17:]))
		if len(rec) != 21+n {
			return fmt.Errorf("malformed outcome record body")
		}
		// An outcome for an absent session (END raced the outcome into the
		// log, or the hello sits past a truncated prefix) is ignorable.
		ss.noteOutcome(sid, req, rec[21:])
	case recEnd:
		if len(rec) != 1+8 {
			return fmt.Errorf("malformed end record")
		}
		delete(ss.state, binary.BigEndian.Uint64(rec[1:]))
	case recNextSID:
		if len(rec) != 1+8 {
			return fmt.Errorf("malformed next-sid record")
		}
		if next := binary.BigEndian.Uint64(rec[1:]); next > ss.nextSID {
			ss.nextSID = next
		}
	default:
		return fmt.Errorf("unexpected session record kind 0x%02x", rec[0])
	}
	return nil
}

// noteOutcome folds one (sid, reqID, reply) verdict into the mirror:
// window insert, high-water bump, eviction past the window bound. The
// single definition keeps live commits and recovery replay in lockstep.
// Must be called with ss.mu held.
func (ss *sessionsFile) noteOutcome(sid, reqID uint64, reply []byte) {
	s, ok := ss.state[sid]
	if !ok {
		return
	}
	s.Window[reqID] = append([]byte(nil), reply...)
	if reqID > s.MaxID {
		s.MaxID = reqID
	}
	for id := range s.Window {
		if id+uint64(ss.window) <= s.MaxID {
			delete(s.Window, id)
		}
	}
}

// Sessions returns a deep copy of every recovered live session, sorted by
// session ID.
func (db *DB) Sessions() []SessionState {
	ss := &db.sessions
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]SessionState, 0, len(ss.state))
	for _, s := range ss.state {
		cp := SessionState{SID: s.SID, PID: s.PID, MaxID: s.MaxID, Window: make(map[uint64][]byte, len(s.Window))}
		for id, reply := range s.Window {
			cp.Window[id] = append([]byte(nil), reply...)
		}
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SID < out[j].SID })
	return out
}

// NextSID returns the session-ID high-water mark: every ID ever issued is
// ≤ it, so the server resumes numbering above it.
func (db *DB) NextSID() uint64 {
	db.sessions.mu.Lock()
	defer db.sessions.mu.Unlock()
	return db.sessions.nextSID
}

// AppendHello durably records a new session (sid, pid) — synced before
// returning, so a client never holds a session ID a restart would forget.
// The in-memory mirror is updated only after the record is durable: a
// failed append must not leave a phantom session for the next compaction
// to persist.
func (db *DB) AppendHello(sid uint64, pid int) error {
	ss := &db.sessions
	ss.mu.Lock()
	ss.enc = append(ss.enc[:0], recHello)
	ss.enc = binary.BigEndian.AppendUint64(ss.enc, sid)
	ss.enc = binary.BigEndian.AppendUint64(ss.enc, uint64(int64(pid)))
	if err := ss.log.Append(ss.enc); err != nil {
		ss.mu.Unlock()
		return err
	}
	if sid > ss.nextSID {
		ss.nextSID = sid
	}
	// Tentatively mirror before the barrier (a compaction barrier must
	// snapshot the new session); roll back on failure so a refused session
	// cannot linger as a phantom the next compaction persists.
	created := false
	if _, ok := ss.state[sid]; !ok {
		ss.state[sid] = &SessionState{SID: sid, PID: pid, Window: make(map[uint64][]byte)}
		created = true
	}
	if err := db.syncOrCompactSessionsLocked(); err != nil {
		if created {
			delete(ss.state, sid)
		}
		ss.mu.Unlock()
		return err
	}
	db.repl.tapSess(ss.enc)
	seq := db.repl.tapBarrier()
	ss.mu.Unlock()
	db.repl.waitBarrier(seq)
	return nil
}

// syncOrCompactSessionsLocked is the sessions-log durability barrier with
// bounded growth: past the threshold it compacts (the snapshot
// write+rename is itself the barrier) instead of syncing, so session
// churn — hellos, ends, observer ID burns — cannot grow the log without
// bound even when no mutating commit ever runs. Called with ss.mu held.
func (db *DB) syncOrCompactSessionsLocked() error {
	ss := &db.sessions
	if ss.log.Size() >= db.compactAt {
		return db.compactSessionsLocked()
	}
	return ss.log.Sync()
}

// NoteSID durably raises the session-ID high-water mark to at least sid
// without recording a recoverable session — used for observer sessions,
// which hold no slot and no window but whose IDs must still never be
// reissued after a restart (a stale observer resuming a recycled ID would
// attach to a stranger's session).
func (db *DB) NoteSID(sid uint64) error {
	ss := &db.sessions
	ss.mu.Lock()
	if sid <= ss.nextSID {
		ss.mu.Unlock()
		return nil
	}
	ss.enc = append(ss.enc[:0], recNextSID)
	ss.enc = binary.BigEndian.AppendUint64(ss.enc, sid)
	if err := ss.log.Append(ss.enc); err != nil {
		ss.mu.Unlock()
		return err
	}
	// Raise the mirror before the barrier: a compaction must snapshot the
	// raised mark, and burning an ID that fails to sync is always safe.
	ss.nextSID = sid
	if err := db.syncOrCompactSessionsLocked(); err != nil {
		ss.mu.Unlock()
		return err
	}
	db.repl.tapSess(ss.enc)
	seq := db.repl.tapBarrier()
	ss.mu.Unlock()
	db.repl.waitBarrier(seq)
	return nil
}

// AppendEnd durably records the end of session sid, releasing it from
// future recoveries.
func (db *DB) AppendEnd(sid uint64) error {
	ss := &db.sessions
	ss.mu.Lock()
	delete(ss.state, sid)
	ss.enc = append(ss.enc[:0], recEnd)
	ss.enc = binary.BigEndian.AppendUint64(ss.enc, sid)
	if err := ss.log.Append(ss.enc); err != nil {
		ss.mu.Unlock()
		return err
	}
	if err := db.syncOrCompactSessionsLocked(); err != nil {
		ss.mu.Unlock()
		return err
	}
	db.repl.tapSess(ss.enc)
	seq := db.repl.tapBarrier()
	ss.mu.Unlock()
	db.repl.waitBarrier(seq)
	return nil
}

// CommitOutcome makes one released verdict durable: shard effects first,
// then the (sid, reqID, reply) outcome record, then the sessions-log
// barrier. The ordering is the durability contract: an outcome record on
// disk implies its effects are on disk, so a replayed verdict never
// promises a lost write. Returns only after both barriers — directly when
// group commit is off, or on the epoch boundary when it is on (the commit
// coalesces with every other commit in flight and they share one fsync
// pair; see groupcommit.go).
func (db *DB) CommitOutcome(sid, reqID uint64, reply []byte) error {
	if e := db.gc.join(sid, reqID, reply); e != nil {
		<-e.done
		return e.err
	}
	return db.commitOutcomeSync(sid, reqID, reply)
}

// commitOutcomeSync is the per-mutation commit path: one shard barrier and
// one sessions barrier per released verdict.
func (db *DB) commitOutcomeSync(sid, reqID uint64, reply []byte) error {
	if !MutantOutcomeFirst {
		if err := db.SyncShards(); err != nil {
			return err
		}
	}
	ss := &db.sessions
	ss.mu.Lock()
	ss.noteOutcome(sid, reqID, reply)
	ss.enc = appendOutcomeRec(ss.enc[:0], sid, reqID, reply)
	if err := ss.log.Append(ss.enc); err != nil {
		ss.mu.Unlock()
		return err
	}
	if err := db.syncOrCompactSessionsLocked(); err != nil {
		ss.mu.Unlock()
		return err
	}
	db.repl.tapSess(ss.enc)
	seq := db.repl.tapBarrier()
	ss.mu.Unlock()
	if MutantOutcomeFirst {
		if err := db.SyncShards(); err != nil {
			return err
		}
	}
	db.repl.waitBarrier(seq)
	return nil
}

// appendOutcomeRec appends one encoded recOutcome payload to dst.
func appendOutcomeRec(dst []byte, sid, reqID uint64, reply []byte) []byte {
	dst = append(dst, recOutcome)
	dst = binary.BigEndian.AppendUint64(dst, sid)
	dst = binary.BigEndian.AppendUint64(dst, reqID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(reply)))
	return append(dst, reply...)
}

// compactSessionsLocked writes the live sessions (and the next-SID
// high-water mark) to a fresh snapshot and resets the log. Called with
// ss.mu held.
func (db *DB) compactSessionsLocked() error {
	ss := &db.sessions
	err := WriteSnapshotFs(db.fs, ss.snap, func(emit func(rec []byte) error) error {
		enc := binary.BigEndian.AppendUint64([]byte{recNextSID}, ss.nextSID)
		if err := emit(enc); err != nil {
			return err
		}
		sids := make([]uint64, 0, len(ss.state))
		for sid := range ss.state {
			sids = append(sids, sid)
		}
		sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
		for _, sid := range sids {
			s := ss.state[sid]
			enc = enc[:0]
			enc = append(enc, recHello)
			enc = binary.BigEndian.AppendUint64(enc, s.SID)
			enc = binary.BigEndian.AppendUint64(enc, uint64(int64(s.PID)))
			if err := emit(enc); err != nil {
				return err
			}
			reqs := make([]uint64, 0, len(s.Window))
			for id := range s.Window {
				reqs = append(reqs, id)
			}
			sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
			for _, id := range reqs {
				enc = enc[:0]
				enc = append(enc, recOutcome)
				enc = binary.BigEndian.AppendUint64(enc, s.SID)
				enc = binary.BigEndian.AppendUint64(enc, id)
				enc = binary.BigEndian.AppendUint32(enc, uint32(len(s.Window[id])))
				enc = append(enc, s.Window[id]...)
				if err := emit(enc); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return ss.log.Reset()
}

// CompactSessions forces a sessions compaction, for tests.
func (db *DB) CompactSessions() error {
	db.sessions.mu.Lock()
	defer db.sessions.mu.Unlock()
	return db.compactSessionsLocked()
}

// Sync flushes every log — the shutdown barrier.
func (db *DB) Sync() error {
	if err := db.SyncShards(); err != nil {
		return err
	}
	return db.sessions.log.Sync()
}

// Close stops group commit (draining any in-flight epoch), syncs, and
// closes every file. The DB must not be used afterwards.
func (db *DB) Close() error {
	db.StopGroupCommit()
	var first error
	for _, sf := range db.shards {
		if err := sf.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := db.sessions.log.Close(); err != nil && first == nil {
		first = err
	}
	db.unlock()
	return first
}
