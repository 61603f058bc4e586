// Package server serves the sharded detectable key-value store
// (internal/shardkv) over TCP, preserving detectability across the network
// boundary.
//
// Each client session leases one process slot of the store's N-process
// model, so a remote session IS one process of the paper. The wire
// protocol (wire.go, docs/PROTOCOL.md) is length-prefixed binary frames;
// each request carries a session-scoped, strictly increasing request ID.
// The server executes a request once, records the encoded reply in the
// session's persisted-outcome window, and replays it verbatim when the
// same request ID is re-issued.
//
// That replay rule is the paper's announcement/recovery contract lifted to
// the session layer: a dropped connection is the crash, and a client that
// reconnects and re-issues its in-flight request ID receives the original
// detectable verdict — the operation took effect at most once, and the
// client learns definitively whether it did.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"detectable/internal/durable"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/rw"
	"detectable/internal/shardkv"
)

// DefaultIdleTimeout is how long a detached session (no connection) is
// retained for resume before it is reaped and its process slot reclaimed.
// Without reaping, every client that dies without a clean CLOSE would leak
// a slot forever.
const DefaultIdleTimeout = 2 * time.Minute

// Server accepts connections and serves sessions over one shardkv.Store.
//
// The store and durable DB are atomic pointers because a standby server
// (NewStandby) starts with neither and gains both at promotion, while
// connection handlers read them lock-free; on a plain primary they are set
// once before Listen and never change.
type Server struct {
	store atomic.Pointer[shardkv.Store]
	db    atomic.Pointer[durable.DB] // nil without -data: sessions live and die in memory

	standby          atomic.Pointer[standbyState] // non-nil until promotion (replication.go)
	fenced           atomic.Bool                  // demoted primary: only admin ops served
	replicas         atomic.Int64                 // attached replication streams
	recoveredReplays atomic.Uint64                // replays served from a recovered outcome window

	// dom is the store's register value domain: a PUT or MPUT value outside
	// it is refused at decode, a malformed field like any other.
	dom rw.Domain

	mu          sync.Mutex
	ln          net.Listener
	sessions    map[uint64]*session
	nextSID     uint64
	idleTTL     time.Duration
	closed      bool
	stop        chan struct{}
	wg          sync.WaitGroup
	replStreams map[*durable.ReplSub]net.Conn // live replication streams, torn down by Close
	wasStandby  *standbyState                 // set at promotion; keeps Promote idempotent
}

// New returns a server over store. Call Listen to start serving.
func New(store *shardkv.Store) *Server {
	srv := &Server{
		sessions: make(map[uint64]*session),
		idleTTL:  DefaultIdleTimeout,
		stop:     make(chan struct{}),
		dom:      rw.DomainOf(store.Procs()),
	}
	srv.store.Store(store)
	return srv
}

// SetIdleTimeout overrides how long detached sessions are retained for
// resume (0 disables reaping). Call before Listen.
func (srv *Server) SetIdleTimeout(d time.Duration) { srv.idleTTL = d }

// AttachDurable makes the server's session layer durable over db (the same
// DB the store was opened with via shardkv.Durable) and recovers every
// session that was live when the previous process died: each gets its
// process slot back, its outcome window reloaded, and its idle-reap clock
// restarted. Call before Listen. From then on, session creation and every
// released verdict are fsynced through db before the client sees them, so
// a client that reconnects after a whole-process crash and re-issues its
// in-flight request ID receives the original verdict. db must have been
// opened with window Window.
func (srv *Server) AttachDurable(db *durable.DB) error {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.ln != nil || len(srv.sessions) > 0 {
		return errors.New("server: AttachDurable must run before Listen")
	}
	if err := checkWindow(db); err != nil {
		return err
	}
	if err := srv.recoverSessionsLocked(db, srv.store.Load()); err != nil {
		return err
	}
	if next := db.NextSID(); next > srv.nextSID {
		srv.nextSID = next
	}
	db.Lead()
	srv.db.Store(db)
	return nil
}

// checkWindow refuses a DB whose outcome windows are not the sessions'
// size: a recovered window wider than Window would not fit a session's.
func checkWindow(db *durable.DB) error {
	if n := db.WindowSize(); n != Window {
		return fmt.Errorf("server: durable DB opened with window %d, sessions hold server.Window = %d", n, Window)
	}
	return nil
}

// recoverSessionsLocked rebuilds the session table from db's recovered
// sessions, leasing each one's process slot back from store. Shared by
// AttachDurable (process restart) and promotion (the standby's recovered
// state becomes the serving state). Called with srv.mu held.
func (srv *Server) recoverSessionsLocked(db *durable.DB, store *shardkv.Store) error {
	// Two recovered sessions can claim one slot when an END record was
	// lost (endSession treats END appends as best-effort) and the pid was
	// re-leased before the crash. The newer session (higher SID — Sessions
	// returns ascending order) is the live one; the superseded one is
	// durably ended now rather than refusing to start from our own data.
	byPid := make(map[int]durable.SessionState)
	for _, ss := range db.Sessions() {
		if prev, ok := byPid[ss.PID]; ok {
			db.AppendEnd(prev.SID) //nolint:errcheck // best-effort, same as endSession
		}
		byPid[ss.PID] = ss
	}
	for _, ss := range byPid {
		if !store.LeaseProc(ss.PID) {
			return fmt.Errorf("server: recovered session %d holds process slot %d, which is not free", ss.SID, ss.PID)
		}
		sess := &session{
			id: ss.SID, pid: ss.PID,
			detachedAt:   time.Now(),
			window:       durable.NewWindow(Window),
			recoveredMax: ss.MaxID,
		}
		// The window's mark is held, so noting the outcomes restores it.
		for _, o := range ss.Window {
			sess.window.Note(o.ID, o.Reply, true)
		}
		srv.sessions[ss.SID] = sess
	}
	return nil
}

// Store returns the served store, for tests and the daemon's final report.
// Nil on a standby that has not been promoted.
func (srv *Server) Store() *shardkv.Store { return srv.store.Load() }

// Listen binds addr (e.g. "127.0.0.1:0") and starts the accept loop in the
// background. The bound address is available from Addr.
func (srv *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	srv.ln = ln
	srv.wg.Add(1)
	srv.mu.Unlock()
	go srv.acceptLoop(ln)
	if srv.idleTTL > 0 {
		srv.wg.Add(1)
		go srv.reapLoop(srv.idleTTL)
	}
	return nil
}

// reapLoop periodically ends sessions that have been detached longer than
// ttl, reclaiming their process slots. A session mid-resume cannot be
// reaped: attaching requires the server lock this loop inspects under.
func (srv *Server) reapLoop(ttl time.Duration) {
	defer srv.wg.Done()
	period := ttl / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-srv.stop:
			return
		case <-tick.C:
		}
		var expired []*session
		srv.mu.Lock()
		now := time.Now()
		for id, sess := range srv.sessions {
			sess.mu.Lock()
			dead := sess.conn == nil && !sess.detachedAt.IsZero() && now.Sub(sess.detachedAt) >= ttl
			sess.mu.Unlock()
			if dead {
				delete(srv.sessions, id)
				expired = append(expired, sess)
			}
		}
		srv.mu.Unlock()
		for _, sess := range expired {
			srv.retire(sess)
		}
	}
}

// Addr returns the listener's address, or nil before Listen.
func (srv *Server) Addr() net.Addr {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.ln == nil {
		return nil
	}
	return srv.ln.Addr()
}

// Sessions reports the number of live sessions.
func (srv *Server) Sessions() int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.sessions)
}

// Close stops accepting, kicks every attached connection and waits for the
// handlers to drain. Sessions are discarded; their slots return to the
// store's pool.
func (srv *Server) Close() error {
	srv.mu.Lock()
	if !srv.closed {
		close(srv.stop)
	}
	srv.closed = true
	if srv.ln != nil {
		srv.ln.Close()
	}
	sessions := make([]*session, 0, len(srv.sessions))
	for id, sess := range srv.sessions {
		sessions = append(sessions, sess)
		delete(srv.sessions, id)
	}
	for sub, conn := range srv.replStreams {
		sub.Close()
		conn.Close()
	}
	srv.mu.Unlock()
	for _, sess := range sessions {
		sess.mu.Lock()
		if sess.conn != nil {
			sess.conn.Close()
		}
		sess.mu.Unlock()
		if sess.pid >= 0 {
			srv.store.Load().ReleaseProc(sess.pid)
		}
	}
	if st := srv.standby.Load(); st != nil {
		st.stopReplication()
	}
	srv.wg.Wait()
	return nil
}

func (srv *Server) acceptLoop(ln net.Listener) {
	defer srv.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // Close closed the listener, or the listener died
		}
		srv.mu.Lock()
		if srv.closed {
			srv.mu.Unlock()
			conn.Close()
			return
		}
		srv.wg.Add(1)
		srv.mu.Unlock()
		go srv.handleConn(conn)
	}
}

// handleConn runs one connection: a HELLO attaching a session, then a
// serial request loop. Protocol errors drop the connection; the session
// (and its outcome window) survives for a future resume.
//
// Buffers are connection-owned and drawn from the shared frame pool:
// frames are read into one grow-only buffer and replies are encoded into
// one scratch buffer, so the steady-state framing path allocates nothing.
// Replies go through a buffered writer that is flushed only when no
// further pipelined request is already buffered, coalescing back-to-back
// replies into a single Write on the connection.
func (srv *Server) handleConn(conn net.Conn) {
	defer srv.wg.Done()
	defer conn.Close()

	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	readBuf := GetFrameBuf()
	defer PutFrameBuf(readBuf)
	scratch := GetFrameBuf()
	defer PutFrameBuf(scratch)

	payload, err := ReadFrameInto(br, readBuf)
	if err != nil {
		return
	}
	r := NewReader(payload)
	if op := r.U8(); op != OpHello {
		WriteFrame(bw, appendErr(nil, ErrBadRequest, "first frame must be HELLO"))
		bw.Flush()
		return
	}
	sid, flags := r.U64(), r.U8()
	if r.Err || r.Rest() != 0 {
		WriteFrame(bw, appendErr(nil, ErrBadRequest, "malformed HELLO"))
		bw.Flush()
		return
	}
	if flags == HelloFlagReplica {
		srv.serveReplication(conn, br, bw)
		return
	}
	sess, gen, reply := srv.attach(conn, sid, flags)
	if err := WriteFrame(bw, reply); err != nil || bw.Flush() != nil || sess == nil {
		return
	}
	defer srv.detach(sess, gen)

	for {
		payload, err := ReadFrameInto(br, readBuf)
		if err != nil {
			return
		}
		reply, closing, fatal := srv.handle(sess, payload, scratch)
		if err := WriteFrame(bw, reply); err != nil {
			return
		}
		if closing {
			// Before the ack leaves: a client that has seen it may count
			// on the slot being free again.
			srv.endSession(sess)
		}
		if closing || fatal || br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		if closing || fatal {
			return
		}
	}
}

// newSession mints a session of kind k: a data session leases a process
// slot and is journaled with it; a slotless one only burns its ID. Called
// with srv.mu held. errSlotsExhausted is the one error that is the
// caller's, not the log's.
func (srv *Server) newSession(k kind) (*session, error) {
	pid := -1
	if k == kindData {
		p, ok := srv.store.Load().AcquireProc()
		if !ok {
			return nil, errSlotsExhausted
		}
		pid = p
	}
	srv.nextSID++
	sess := &session{id: srv.nextSID, pid: pid, kind: k, gen: 1, window: durable.NewWindow(Window)}
	if db := srv.db.Load(); db != nil {
		// The session must be durable before the client learns its ID:
		// a restart may otherwise greet the resume with unknown-session
		// and strand the client's in-flight request. Slotless sessions
		// are not recoverable (no slot, no window) but still burn their
		// ID durably, or a restart would reissue it and a stale
		// observer's resume would attach to a stranger's session. On
		// failure the ID stays burned in memory too: the append may
		// have reached the log even when the sync failed, and reusing
		// the ID could durably bind it to two different pids.
		var err error
		if pid < 0 {
			err = db.NoteSID(sess.id)
		} else if err = db.AppendHello(sess.id, pid); err != nil {
			srv.store.Load().ReleaseProc(pid)
		}
		if err != nil {
			return nil, err
		}
	}
	return sess, nil
}

var errSlotsExhausted = errors.New("server: every process slot is leased")

// attach creates (sid 0) or resumes a session and binds conn to it,
// kicking any connection previously attached. It returns the session (nil
// on error), the attach generation and the HELLO reply.
func (srv *Server) attach(conn net.Conn, sid uint64, flags byte) (*session, uint64, []byte) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.closed {
		return nil, 0, appendErr(nil, ErrBadRequest, "server shutting down")
	}
	k, ok := kindOf(flags)
	if !ok {
		return nil, 0, appendErr(nil, ErrBadRequest, "HELLO flags must name exactly one session kind")
	}
	// Admitted on the kind the HELLO claims, before any lookup and before
	// any state exists. A client resuming the old primary's sid on a
	// standby must hear not-primary (try the next address), never
	// unknown-session (fatal to the client): the standby's table does not
	// hold replicated sessions until promotion, so the lookup below could
	// not tell the two apart. And a fenced ex-primary that minted a data
	// session would lease a slot and durably burn a sid the promoted node
	// has never heard of, stranding the client there on unknown-session.
	role := srv.role()
	if code := admit[classHello][role][k]; code != StatusOK {
		return nil, 0, appendRefusal(nil, code, role)
	}

	if sid == 0 {
		sess, err := srv.newSession(k)
		if errors.Is(err, errSlotsExhausted) {
			return nil, 0, appendErr(nil, ErrSlotsExhausted, "every process slot is leased")
		} else if err != nil {
			return nil, 0, appendErr(nil, ErrBadRequest, "durable session record failed")
		}
		sess.conn = conn
		srv.sessions[sess.id] = sess
		return sess, 1, appendHelloOK(nil, sess.id, sess.pid, false)
	}

	sess, ok := srv.sessions[sid]
	if !ok {
		return nil, 0, appendErr(nil, ErrUnknownSession, "no such session")
	}
	if sess.kind != k {
		return nil, 0, appendErr(nil, ErrBadRequest, "resume must name the kind the session was opened with")
	}
	sess.mu.Lock()
	if sess.conn != nil {
		sess.conn.Close() // kick the stale connection; its handler detaches as a no-op
	}
	sess.conn = conn
	sess.detachedAt = time.Time{}
	sess.gen++
	gen := sess.gen
	sess.mu.Unlock()
	return sess, gen, appendHelloOK(nil, sess.id, sess.pid, true)
}

// detach clears the session's connection if this handler still owns it,
// starting the idle-reap clock.
func (srv *Server) detach(sess *session, gen uint64) {
	sess.mu.Lock()
	if sess.gen == gen {
		sess.conn = nil
		sess.detachedAt = time.Now()
	}
	sess.mu.Unlock()
}

// endSession removes the session and returns its slot. Idempotent under
// the server lock.
func (srv *Server) endSession(sess *session) {
	srv.mu.Lock()
	_, live := srv.sessions[sess.id]
	delete(srv.sessions, sess.id)
	srv.mu.Unlock()
	if live {
		srv.retire(sess)
	}
}

// retire gives back what a session that has left the table held: its
// durable record and its process slot (a slotless session holds neither).
// The END is appended after the session left the table, so a resume that
// raced past that point was already refused with unknown-session;
// replication ships the END on the same barrier, so a promoted replica
// refuses it too — a retired sid can never come back as a stale session.
// Best-effort: a lost END record only means the session is recovered once
// more after a restart and reaped by the idle TTL.
func (srv *Server) retire(sess *session) {
	if sess.pid < 0 {
		return
	}
	if db := srv.db.Load(); db != nil {
		db.AppendEnd(sess.id) //nolint:errcheck
	}
	srv.store.Load().ReleaseProc(sess.pid)
}

// handle processes one request frame under the session lock. The
// check-execute-record sequence is atomic per session, which is what
// makes a re-issued request ID exactly-once even when a kicked half-dead
// connection races its replacement over the same ID.
//
// Fresh replies are encoded into *scratch (the connection's pooled buffer)
// and remain valid until the next handle call; successful replies are
// copied into the session's outcome window, into the reused buffer of the
// ID's slot. Replayed replies are copied out of the slot into *scratch.
func (srv *Server) handle(sess *session, payload []byte, scratch *[]byte) (reply []byte, closing, fatal bool) {
	r := NewReader(payload)
	op := r.U8()
	reqID := r.U64()
	if r.Err || reqID == 0 {
		return appendErr((*scratch)[:0], ErrBadRequest, "malformed request header"), false, true
	}
	if op == OpPromote {
		// Promotion is an admin op outside the session's outcome window: it
		// is idempotent by construction (replication.go), so a re-issued ID
		// simply re-executes, and it must not run under sess.mu — promotion
		// takes srv.mu, which attach acquires before session locks.
		if r.Rest() != 0 {
			return appendErr((*scratch)[:0], ErrBadRequest, "malformed PROMOTE"), false, true
		}
		gen, err := srv.Promote()
		if err != nil {
			return appendErr((*scratch)[:0], ErrBadRequest, "promotion failed: "+err.Error()), false, false
		}
		reply = append((*scratch)[:0], StatusOK)
		reply = binary.BigEndian.AppendUint64(reply, gen)
		if cap(reply) > cap(*scratch) {
			*scratch = reply
		}
		return reply, false, false
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()

	if cached, recovered, ok := sess.window.Lookup(reqID); ok {
		if recovered {
			// This verdict crossed a process boundary: recovered from the
			// durable window (restart, or a promoted replica's shipped
			// state) and now served to its original requester.
			srv.recoveredReplays.Add(1)
		}
		// Copy into the connection scratch: the write to the socket happens
		// after the session lock is released, and a racing replacement
		// connection may reuse the window slot in the meantime.
		reply = append((*scratch)[:0], cached...)
		if cap(reply) > cap(*scratch) {
			*scratch = reply
		}
		return reply, false, false
	} else if !sess.fresh(reqID) {
		return appendErr((*scratch)[:0], ErrStaleRequest, "request ID fell out of the outcome window"), false, false
	}

	c, _ := classOf(op) // an op of no class gets no further than execute's decode
	db := srv.db.Load()
	if db != nil && c == classWrite && sess.kind == kindData {
		// The puts this request journals are stamped with its ID: the
		// record of each effect says whose effect it is.
		db.BeginRequest(sess.pid, reqID)
	}
	reply, closing, fatal = srv.execute(sess, op, c, r, (*scratch)[:0])
	if cap(reply) > cap(*scratch) {
		*scratch = reply // keep the grown buffer for the next frame
	}
	if !fatal && len(reply) > 0 && reply[0] == StatusOK && !closing {
		if db != nil && c == classWrite {
			// The durability barrier before release: the verdict goes into
			// the write-ahead log and the log is synced, and only then may
			// the reply leave. Every linearized put journaled its put-at
			// record stamped with this request's ID and verdict; where the
			// stamps carry the whole reply, a bare barrier makes it durable.
			// A reply holding a failed verdict is an outcome record behind
			// this request's puts, so a replayed verdict can never outlive
			// its effect.
			// Read-only replies skip it: they have no effect to anchor, a
			// never-delivered read simply re-executes fresh after a
			// restart, and the in-memory window still covers
			// connection-level resume — so reads cost no fsync.
			var err error
			if durable.StampsCarry(reply) {
				err = db.Sync()
			} else {
				err = db.CommitOutcome(sess.id, reqID, reply)
			}
			if err != nil {
				return appendErr((*scratch)[:0], ErrBadRequest, "durable outcome commit failed"), false, true
			}
		}
		sess.window.Note(reqID, reply, false)
	}
	return reply, closing, fatal
}

// execute decodes the op-specific body, asks the admit table whether this
// node serves this opcode to this kind of session, runs it and appends the
// reply to dst. Decode comes first: a frame that does not parse is
// bad-request and connection-fatal for every kind on every role, so no
// refusal can mask it. Called with the session lock held, hence no srv.mu
// anywhere below (attach holds srv.mu before session locks).
func (srv *Server) execute(sess *session, op byte, c class, r *Reader, dst []byte) (reply []byte, closing, fatal bool) {
	var (
		plan, shard uint32
		key         string
		val         int
	)
	switch op {
	case OpGet, OpDel:
		plan, key = r.U32(), r.KeyRef()
	case OpPut:
		plan, key, val = r.U32(), r.KeyRef(), r.value(srv.dom)
	case OpMGet:
		sess.keys = sess.keys[:0]
		for n := r.batchLen(); n > 0; n-- {
			sess.keys = append(sess.keys, r.KeyRef())
		}
	case OpMPut:
		sess.entries = sess.entries[:0]
		for n := r.batchLen(); n > 0; n-- {
			sess.entries = append(sess.entries, shardkv.KV{Key: r.KeyRef(), Val: r.value(srv.dom)})
		}
	case OpCrash:
		shard = r.U32()
	case OpStats, OpClose, OpServerStats:
	default:
		// PROMOTE never gets here (handle runs it outside the session
		// lock); a mid-stream HELLO and a byte that is no opcode do.
		r.Err = true
	}
	if r.Err || r.Rest() != 0 {
		return appendErr(dst, ErrBadRequest, "malformed request"), false, true
	}

	role := srv.role()
	if code := admit[c][role][sess.kind]; code != StatusOK {
		return appendRefusal(dst, code, role), false, false
	}

	// Admitted. Only a read still looks at the kind and the node: a data
	// session on an in-memory node runs the detectable operation as its
	// process, every other read is of committed state (readonly.go), where
	// a GET's crash plan never fires: a view read takes no primitive step.
	store := srv.store.Load()
	live := sess.kind == kindData && srv.db.Load() == nil
	switch op {
	case OpGet:
		if live {
			return durable.AppendReply(dst, store.Get(sess.pid, key, planOf(plan)...)), false, false
		}
		if plan != 0 && sess.kind != kindData {
			// Crash plans drive a shard's recovery machinery, which needs a
			// process identity; a slotless read has none.
			return appendErr(dst, ErrObserver, "crash plan on a slotless session"), false, false
		}
		return durable.AppendReply(dst, runtime.Outcome[int]{Status: runtime.StatusOK, Resp: srv.readKey(sess, key)}), false, false
	case OpMGet:
		if live {
			return durable.AppendBatchReply(dst, store.MultiGetWith(&sess.batch, sess.pid, sess.keys)), false, false
		}
		dst = append(dst, StatusOK)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(sess.keys)))
		for _, k := range sess.keys {
			dst = durable.AppendVerdict(dst, runtime.Outcome[int]{Status: runtime.StatusOK, Resp: srv.readKey(sess, k)})
		}
		return dst, false, false
	case OpPut:
		return durable.AppendReply(dst, store.Put(sess.pid, key, val, planOf(plan)...)), false, false
	case OpDel:
		return durable.AppendReply(dst, store.Del(sess.pid, key, planOf(plan)...)), false, false
	case OpMPut:
		return durable.AppendBatchReply(dst, store.MultiPutWith(&sess.batch, sess.pid, sess.entries)), false, false
	case OpCrash:
		if shard == CrashAllShards {
			store.Crash()
		} else if int(shard) < store.NumShards() {
			store.CrashShard(int(shard))
		} else {
			return appendErr(dst, ErrBadRequest, "shard out of range"), false, false
		}
		return appendAck(dst), false, false
	case OpStats:
		return appendStatsReply(dst, store.Snapshots()), false, false
	case OpServerStats:
		return appendServerStatus(dst, srv.status()), false, false
	case OpClose:
		return appendAck(dst), true, false
	}
	panic("server: execute ran an opcode its decode switch refuses")
}

// planOf maps the wire's plan field to a crash plan: 0 is none, p > 0
// injects one system-wide crash before the p-th primitive step of the
// operation on its shard — the deterministic injection surface of
// nvm.CrashAtStep, exposed over the wire.
func planOf(plan uint32) []nvm.CrashPlan {
	if plan == 0 {
		return nil
	}
	return []nvm.CrashPlan{nvm.CrashAtStep(uint64(plan))}
}
