package server

// Primary/backup replication endpoint and standby lifecycle
// (docs/REPLICATION.md).
//
// A replica connects like any client but sets HelloFlagReplica: after the
// HELLO-OK the connection becomes a replication stream — the server ships
// its write-ahead log as durable.Repl* messages in length-prefixed wire
// frames, a bootstrap that replaces the standby's log and then the live
// records, and reads only durable.ReplAck frames back. The subscription is
// synchronous: every commit on the primary waits for the replica's barrier
// ack before its verdict is released, so group commit and replication share
// one epoch boundary — and the two nodes fsync an epoch side by side, the
// barrier leaving the primary before its own fsync starts.
//
// A standby (NewStandby) owns a warm durable.DB it feeds from the
// primary's stream and serves no data sessions until Promote: promotion
// durably advances the fencing generation in the standby's MANIFEST,
// builds the store from the recovered mirrors, and recovers every
// replicated session — a client that resumes its session here replays its
// outcome window byte-identically. An active primary asked to Promote
// instead fences itself: it stops serving data and answers ErrNotPrimary,
// and its lower generation means no promoted replica will ever accept its
// stream again.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"detectable/internal/durable"
	"detectable/internal/rw"
	"detectable/internal/shardkv"
)

// Node roles reported by OpServerStats.
const (
	RolePrimary byte = 0
	RoleStandby byte = 1
	RoleFenced  byte = 2
)

// standbySIDBase offsets observer session IDs issued while in standby so
// they can never collide with the data-session IDs recovered from the
// replicated session records at promotion.
const standbySIDBase = uint64(1) << 63

// Every stream message fits one wire frame, and every record a node
// journals fits one message, framed, behind its kind byte. The largest is
// an MPUT's outcome: 21 B of kind, sid, reqID and reply length, then a
// status, a u16 count and a verdict per entry. A put-at record is its key
// and durable.PutAtOverhead. A negative difference would not compile.
const (
	_ = uint(MaxFrame - durable.MaxReplMsg)
	_ = uint(durable.MaxReplMsg - 1 - durable.FrameHeader - (21 + 3 + durable.VerdictSize*MaxBatch))
	_ = uint(durable.MaxReplMsg - 1 - durable.FrameHeader - (durable.PutAtOverhead + MaxKey))
)

// replicaDialTimeout bounds the standby's dial + handshake with the
// primary; replicaRetryMin/Max bound its reconnect backoff.
const (
	replicaDialTimeout = 3 * time.Second
	replicaRetryMin    = 100 * time.Millisecond
	replicaRetryMax    = 2 * time.Second
)

// standbyState is the replication side of a not-yet-promoted standby.
type standbyState struct {
	db       *durable.DB
	newStore func() *shardkv.Store

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu   sync.Mutex
	conn net.Conn // live connection to the primary, closed to interrupt

	promoted    chan struct{}
	promoteOnce sync.Once
	promoteErr  error
	promoteGen  uint64
}

// NewStandby returns a warm-standby server over db: it serves only
// observer sessions (stats, promotion) until Promote, and feeds db from a
// primary via StartReplication. newStore must build the serving store over
// db's recovered state (shardkv.New with shardkv.Durable(db)); it runs at
// promotion time.
func NewStandby(db *durable.DB, newStore func() *shardkv.Store) *Server {
	srv := &Server{
		sessions: make(map[uint64]*session),
		idleTTL:  DefaultIdleTimeout,
		stop:     make(chan struct{}),
		nextSID:  standbySIDBase,
		dom:      rw.DomainOf(db.Procs()),
	}
	srv.standby.Store(&standbyState{
		db:       db,
		newStore: newStore,
		stopc:    make(chan struct{}),
		promoted: make(chan struct{}),
	})
	return srv
}

// Promoted returns a channel closed when the standby has been promoted to
// primary (never closed for a server born primary).
func (srv *Server) Promoted() <-chan struct{} {
	if st := srv.standby.Load(); st != nil {
		return st.promoted
	}
	if st := srv.promotedFrom(); st != nil {
		return st.promoted
	}
	return make(chan struct{})
}

// promotedFrom returns the standbyState this server was promoted out of,
// or nil. The pointer is parked under srv.mu after promotion so a
// re-issued PROMOTE stays idempotent instead of fencing the new primary.
func (srv *Server) promotedFrom() *standbyState {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.wasStandby
}

// Promote turns a standby into the serving primary, or fences a server
// that is already primary.
//
// Standby: replication stops, the fencing generation advances durably in
// the MANIFEST (so the old primary's stream — still at the lower
// generation — is refused forever), the store is built over the recovered
// mirrors and every replicated session is recovered with its outcome
// window. Idempotent: a re-issued PROMOTE returns the same generation.
//
// Primary: the node fences itself — data ops answer ErrNotPrimary from
// now on — and returns its current generation. This is the "old primary"
// half of a planned failover.
func (srv *Server) Promote() (uint64, error) {
	st := srv.standby.Load()
	if st == nil {
		if prev := srv.promotedFrom(); prev != nil {
			// Already promoted by an earlier (possibly retransmitted)
			// PROMOTE: acknowledge it rather than fencing ourselves.
			return prev.promoteGen, prev.promoteErr
		}
		srv.fenced.Store(true)
		if db := srv.db.Load(); db != nil {
			return db.Generation(), nil
		}
		return 0, nil
	}
	st.promoteOnce.Do(func() {
		st.promoteGen, st.promoteErr = srv.promoteStandby(st)
		if st.promoteErr == nil {
			close(st.promoted)
		}
	})
	return st.promoteGen, st.promoteErr
}

// promoteStandby does the actual standby→primary transition.
func (srv *Server) promoteStandby(st *standbyState) (uint64, error) {
	st.stopReplication()
	db := st.db
	gen := db.Generation() + 1
	if err := db.SetGeneration(gen); err != nil {
		return 0, fmt.Errorf("server: fencing generation: %w", err)
	}
	// The store restores from db's live mirrors (shardkv.Durable ranges
	// them), exactly as a restart would from disk — the recovery path the
	// simio sweeps model-check.
	store := st.newStore()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	// Replicated data sids sit far below standbySIDBase; nextSID stays at
	// the observer range's high-water, so every future sid — data or
	// observer — is unique against both populations.
	if next := db.NextSID(); next > srv.nextSID {
		srv.nextSID = next
	}
	if err := srv.recoverSessionsLocked(db, store); err != nil {
		return 0, err
	}
	srv.store.Store(store)
	srv.db.Store(db)
	db.Lead()
	srv.wasStandby = st
	srv.standby.Store(nil)
	return gen, nil
}

// stopReplication tears the replica loop down: no more records apply
// after it returns. Idempotent; Close and Promote both call it.
func (st *standbyState) stopReplication() {
	st.stopOnce.Do(func() { close(st.stopc) })
	st.mu.Lock()
	if st.conn != nil {
		st.conn.Close()
	}
	st.mu.Unlock()
	st.wg.Wait()
}

// StartReplication starts the standby's replication loop against the
// primary at addr: connect with HelloFlagReplica, apply the stream, ack
// every barrier, reconnect with backoff on any error (each reconnect
// begins with a fresh bootstrap, which replaces whatever this node held).
// The loop stops at Promote/Close, or permanently if the primary turns out
// to be stale (lower generation than this replica). The standby's DB must
// have been opened with window Window.
func (srv *Server) StartReplication(addr string) error {
	st := srv.standby.Load()
	if st == nil {
		return errors.New("server: StartReplication on a non-standby server")
	}
	if err := checkWindow(st.db); err != nil {
		return err
	}
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		backoff := replicaRetryMin
		for {
			select {
			case <-st.stopc:
				return
			default:
			}
			err := st.replicateOnce(addr)
			if errors.Is(err, durable.ErrStalePrimary) {
				// The primary is fenced relative to us: its stream must
				// never apply. Stop rather than retry into it forever.
				return
			}
			select {
			case <-st.stopc:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > replicaRetryMax {
				backoff = replicaRetryMax
			}
		}
	}()
	return nil
}

// replicateOnce runs one replication connection to completion: dial,
// replica HELLO, then apply stream messages and ack barriers until the
// connection or the stream fails.
func (st *standbyState) replicateOnce(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, replicaDialTimeout)
	if err != nil {
		return err
	}
	st.mu.Lock()
	select {
	case <-st.stopc:
		st.mu.Unlock()
		conn.Close()
		return errors.New("server: replication stopped")
	default:
	}
	st.conn = conn
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		if st.conn == conn {
			st.conn = nil
		}
		st.mu.Unlock()
		conn.Close()
	}()

	// The stream is many small messages (an epoch is its records, its
	// barrier and its commit mark): read them through a buffer, not with
	// two read syscalls each, and send a frame — header and payload — as
	// one write.
	br := bufio.NewReader(conn)
	bw := bufio.NewWriterSize(conn, 64) // all it sends: a 14-byte HELLO, 13-byte acks
	writeFrame := func(payload []byte) error {
		if err := WriteFrameBuffered(bw, payload); err != nil {
			return err
		}
		return bw.Flush()
	}

	conn.SetDeadline(time.Now().Add(replicaDialTimeout))
	if err := writeFrame(AppendHello(nil, 0, HelloFlagReplica)); err != nil {
		return err
	}
	reply, err := ReadFrame(br)
	if err != nil {
		return err
	}
	if len(reply) < 1 || reply[0] != StatusOK {
		code := ErrBadRequest
		if len(reply) > 0 {
			code = reply[0]
		}
		return fmt.Errorf("server: replica HELLO refused: %s", ErrName(code))
	}
	conn.SetDeadline(time.Time{})

	rep := st.db.NewReplica()
	var readBuf, ackBuf []byte
	for {
		msg, err := ReadFrameInto(br, &readBuf)
		if err != nil {
			return err
		}
		seq, barrier, err := rep.Apply(msg)
		if err != nil {
			return err
		}
		if !barrier {
			continue
		}
		// The ack is sent only after Apply returned — i.e. after the
		// barrier's records are fsynced on our disk. That is the
		// epoch-aligned ack rule: the primary releases the epoch's
		// verdicts once this ack and its own fsync are both in, knowing
		// they are durable on both nodes. Readers here see the epoch
		// only when the primary's commit mark follows.
		ackBuf = durable.AppendReplAck(ackBuf[:0], seq)
		if err := writeFrame(ackBuf); err != nil {
			return err
		}
	}
}

// serveReplication turns an accepted connection into a replication
// stream. Runs on the connection's handler goroutine; returns when the
// stream or the peer dies.
func (srv *Server) serveReplication(conn net.Conn, br *bufio.Reader, bw *bufio.Writer) {
	db := srv.db.Load()
	if db == nil || srv.role() != RolePrimary {
		WriteFrame(bw, appendErr(nil, ErrNotPrimary, "replication needs a serving durable primary"))
		bw.Flush()
		return
	}
	if err := WriteFrame(bw, appendHelloOK(nil, 0, -1, false)); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}

	sub := db.Subscribe(0)
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		sub.Close()
		return
	}
	if srv.replStreams == nil {
		srv.replStreams = make(map[*durable.ReplSub]net.Conn)
	}
	srv.replStreams[sub] = conn
	srv.mu.Unlock()
	srv.replicas.Add(1)
	defer func() {
		srv.replicas.Add(-1)
		sub.Close()
		srv.mu.Lock()
		delete(srv.replStreams, sub)
		srv.mu.Unlock()
	}()

	// Ack reader: the only frames the replica sends are barrier acks. A
	// stream that breaks fails the subscription with its cause; after this
	// node's own Close, which closed the subscription first, that is a
	// no-op.
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf []byte
		for {
			payload, err := ReadFrameInto(br, &buf)
			if err != nil {
				sub.Fail(fmt.Errorf("server: replication ack stream from %s: %w", conn.RemoteAddr(), err))
				return
			}
			seq, ok := durable.ParseReplAck(payload)
			if !ok {
				sub.Fail(fmt.Errorf("server: bad replication ack from %s (%d bytes)", conn.RemoteAddr(), len(payload)))
				return
			}
			sub.Ack(seq)
		}
	}()

	// Writer: drain the subscription onto the wire. Chunks are whole
	// framed messages, written raw — bypassing bw so a chunk is one
	// syscall and never lingers unflushed while commits wait for acks.
	for {
		chunk, err := sub.Next()
		if err != nil {
			break
		}
		if _, err := conn.Write(chunk); err != nil {
			sub.Fail(fmt.Errorf("server: replication stream to %s: %w", conn.RemoteAddr(), err))
			break
		}
	}
	conn.Close() // unblock the ack reader
	<-done
}

// status is the node's SERVER-STATS reply (ServerStatus, wire.go), from
// atomics only: it is served under a session lock on every role.
func (srv *Server) status() ServerStatus {
	st := ServerStatus{Role: srv.role(), RecoveredReplays: srv.recoveredReplays.Load(), Replicas: uint64(srv.replicas.Load())}
	db := srv.db.Load()
	if sb := srv.standby.Load(); sb != nil {
		db = sb.db // promotion installs this same DB as srv.db
	}
	if db == nil {
		return st
	}
	st.Generation = db.Generation()
	st.ReplSeq, st.ReplAcked, _ = db.ReplStatus()
	st.ReplApplied = st.ReplSeq
	if st.Role == RoleStandby {
		st.ReplApplied = db.ViewSeq()
	}
	return st
}

// StopReplication halts a standby's replication loop without promoting it:
// the read view freezes at its current applied mark while the primary's
// committed mark keeps advancing — the deliberately-lagging replica the
// MaxLag fallback tests need. Idempotent; a later Promote still works. No
// effect on a server born (or already promoted to) primary.
func (srv *Server) StopReplication() {
	if st := srv.standby.Load(); st != nil {
		st.stopReplication()
	}
}
