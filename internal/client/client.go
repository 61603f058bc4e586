// Package client is the Go client for the detectable KV server
// (internal/server). It keeps detectability end-to-end across connection
// loss: every request carries a session-scoped request ID, and when the
// connection drops mid-call the client transparently reconnects, resumes
// its session and re-issues the same request ID — receiving the original
// persisted verdict if the server already executed the request, or a fresh
// execution if it never arrived. Either way the operation takes effect at
// most once and the caller gets a definite detectable outcome.
//
// KillConn and KillAfterNextSend are chaos hooks: tests and the load
// generator use them to sever the TCP connection at the worst moments and
// assert that resumption preserves exactly-once semantics.
package client

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"detectable/internal/runtime"
	"detectable/internal/server"
	"detectable/internal/shardkv"
)

// WireError is a protocol-level error reply from the server.
type WireError struct {
	Code byte
	Msg  string
}

// Error implements error.
func (e *WireError) Error() string {
	return fmt.Sprintf("server: %s: %s", server.ErrName(e.Code), e.Msg)
}

// Client is one session against a detectable KV server. A Client is one
// process of the store's N-process model (observer clients excepted) and
// is therefore NOT safe for concurrent use: one operation at a time, the
// per-process rule of the paper.
type Client struct {
	// addrs is the failover set: connect tries them round-robin starting
	// at addrIdx, and a successful handshake pins addrIdx so the session
	// sticks to the address that accepted it until it stops being primary.
	addrs   []string
	addrIdx int
	flags   byte // the HELLO flags naming the session's kind, sent on every (re)connect

	// redial policy for transparent resumption. redialWait is the CAP of
	// the capped-exponential backoff, not a fixed sleep.
	maxRedials int
	redialWait time.Duration

	// callTimeout, when set, bounds every reply read (and redial) so a
	// dead-but-listening server surfaces as an error instead of blocking
	// the call forever. Off by default.
	callTimeout time.Duration

	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	session uint64
	nextID  uint64

	// enc is the per-session request-encoding scratch and readBuf the
	// grow-only reply buffer: one operation in flight at a time (the
	// per-process rule), so both are reused for every call and the framing
	// path allocates nothing in steady state.
	enc     []byte
	readBuf []byte

	resumes  uint64
	killNext bool
}

// Dial opens a new session against addr, leasing one process slot.
func Dial(addr string) (*Client, error) { return dial([]string{addr}, 0) }

// DialFailover opens a session against the first address in addrs that
// accepts it as primary. On later connection loss — or an ErrNotPrimary
// rejection after a demotion — the redial loop rotates through the
// remaining addresses, so a resumed session lands on the promoted replica
// and replays its outcome window there. A standby refuses a data session
// with ErrNotPrimary, so no mutation ever lands on one.
func DialFailover(addrs []string) (*Client, error) { return dial(addrs, 0) }

// DialObserver opens a slot-less observer session: it may only issue
// CrashShard, Stats, ServerStats, Promote and Close. Storm drivers and
// stats pollers use it so they do not occupy a process identity.
func DialObserver(addr string) (*Client, error) {
	return dial([]string{addr}, server.HelloFlagObserver)
}

// DialReadOnly opens a slot-less GET-only session (HelloFlagReadOnly): it
// may issue Get, MultiGet, ServerStats, Promote and Close, and is the one
// session kind a warm standby accepts — reads are served from the
// replica's barrier-consistent applied state, bounded-stale but never
// phantom. What the kind is never served (mutations, chaos ops) fails
// locally with the server's own observer-session error, as it does on an
// observer session. DialReadPreference builds the replica-preferring,
// staleness-bounded router on top of this.
func DialReadOnly(addr string) (*Client, error) {
	return dial([]string{addr}, server.HelloFlagReadOnly)
}

func dial(addrs []string, flags byte) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("client: no addresses to dial")
	}
	c := &Client{
		addrs: addrs, flags: flags,
		maxRedials: 8, redialWait: 50 * time.Millisecond,
	}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect performs the HELLO handshake against each address in the
// failover set once, starting at addrIdx, and pins the first that accepts.
// A standby's ErrNotPrimary moves on to the next address; any other
// protocol rejection is fatal (another address cannot make a malformed or
// unknown session valid).
func (c *Client) connect() error {
	var lastErr error
	for i := range c.addrs {
		idx := (c.addrIdx + i) % len(c.addrs)
		err := c.connectTo(c.addrs[idx])
		if err == nil {
			c.addrIdx = idx
			return nil
		}
		if we, isWire := err.(*WireError); isWire && we.Code != server.ErrNotPrimary {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// nextAddr rotates the failover cursor, so the next connect attempt
// starts at a different address.
func (c *Client) nextAddr() {
	if len(c.addrs) > 1 {
		c.addrIdx = (c.addrIdx + 1) % len(c.addrs)
	}
}

// connectTo dials one address and runs the HELLO handshake, opening the
// session on first use and resuming it afterwards.
func (c *Client) connectTo(addr string) error {
	d := net.Dialer{Timeout: c.callTimeout} // zero: no dial bound, as before
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	// Freshly encoded on purpose: connect runs inside call's resume loop,
	// where the pending request still aliases the c.enc scratch.
	if err := server.WriteFrame(bw, server.AppendHello(nil, c.session, c.flags)); err != nil {
		conn.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		conn.Close()
		return err
	}
	if c.callTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(c.callTimeout))
	}
	payload, err := server.ReadFrameInto(br, &c.readBuf)
	if err != nil {
		conn.Close()
		return err
	}
	if c.callTimeout > 0 {
		conn.SetReadDeadline(time.Time{})
	}
	r, err := replyBody(payload)
	if err != nil {
		conn.Close()
		return err
	}
	sid := r.U64()
	r.U32() // the leased process slot: the server keeps it
	resumed := r.U8() == 1
	if r.Err {
		conn.Close()
		return fmt.Errorf("client: malformed HELLO reply")
	}
	if resumed {
		c.resumes++
	}
	c.session = sid
	c.conn, c.br, c.bw = conn, br, bw
	return nil
}

// SetRedialPolicy overrides how hard a call tries to resume after a lost
// connection: up to maxRedials reconnect attempts, with jittered
// exponential backoff capped at wait between them. The default (8 × 50ms
// cap) rides out connection kills; drivers that must survive a
// whole-process server restart or a failover promotion (loadgen
// -restart-storm / -failover-storm) raise it to cover that latency.
func (c *Client) SetRedialPolicy(maxRedials int, wait time.Duration) {
	if maxRedials > 0 {
		c.maxRedials = maxRedials
	}
	if wait > 0 {
		c.redialWait = wait
	}
}

// SetCallTimeout bounds every reply read (and every redial's dial and
// handshake) by d, so a dead-but-listening server — the socket accepts
// but nothing ever answers — turns into a timeout error and the redial
// loop can fail over instead of blocking forever. Zero disables the
// bound (the default): an idle healthy call may legitimately wait as
// long as the server takes.
func (c *Client) SetCallTimeout(d time.Duration) { c.callTimeout = d }

// backoff returns the pre-attempt sleep for redial attempt n ≥ 1: an
// exponential ramp from redialWait/8 capped at redialWait, jittered into
// [d/2, d] so a fleet of clients severed by the same crash does not
// reconnect in lockstep.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.redialWait / 8
	if d < time.Millisecond {
		d = time.Millisecond
	}
	for i := 1; i < attempt && d < c.redialWait; i++ {
		d *= 2
	}
	if d > c.redialWait {
		d = c.redialWait
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// SessionID returns the server-assigned session ID.
func (c *Client) SessionID() uint64 { return c.session }

// Resumes returns how many times the session was resumed after a lost
// connection.
func (c *Client) Resumes() uint64 { return c.resumes }

// KillConn severs the TCP connection immediately. The session survives on
// the server; the next call transparently reconnects and resumes.
func (c *Client) KillConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.br, c.bw = nil, nil, nil
	}
}

// KillAfterNextSend arms a one-shot chaos hook: the next request is
// written in full and the connection is then severed before the reply is
// read, forcing the resume path to recover the persisted verdict of an
// operation the server (most likely) executed.
func (c *Client) KillAfterNextSend() { c.killNext = true }

// checkKey rejects keys the wire's u16 length prefix cannot carry, before
// an unchecked cast would silently desync the frame.
func checkKey(key string) error {
	if len(key) > server.MaxKey {
		return fmt.Errorf("client: key of %d bytes exceeds the %d-byte wire limit", len(key), server.MaxKey)
	}
	return nil
}

// checkBatch rejects batches the server would refuse or the framing
// cannot carry.
func checkBatch(n int) error {
	if n > server.MaxBatch {
		return fmt.Errorf("client: batch of %d exceeds the server's %d-entry limit", n, server.MaxBatch)
	}
	return nil
}

// replyBody checks a reply's status byte: StatusOK leaves the reader at the
// body, any other status is the server's error reply.
func replyBody(payload []byte) (server.Reader, error) {
	r := server.NewReader(payload)
	if code := r.U8(); code != server.StatusOK {
		return server.Reader{}, &WireError{Code: code, Msg: r.Key()} // error body is u16-length text, same shape as a key
	}
	return *r, nil
}

// call sends one pre-encoded request and returns a reader over the body of
// its successful reply. On connection failure it reconnects, resumes the
// session and re-issues the same bytes (same request ID). An ErrNotPrimary
// reply — the node was demoted under this session — rotates to the next
// failover address and retries there; any other error reply is the answer.
// Retries back off exponentially (jittered, capped at the redial wait)
// BEFORE each attempt, so a failed final attempt returns immediately
// instead of sleeping one last time.
//
// An op the session's kind can never be served (server.RefusedByKind)
// fails here with the error the server would send, before any bytes leave:
// a read-only client never rotates a doomed mutation through its failover
// set burning redial budget on guaranteed rejections.
func (c *Client) call(req []byte) (r server.Reader, err error) {
	if len(req) > server.MaxFrame {
		// Deterministic local failure: redialing cannot shrink the frame.
		return r, fmt.Errorf("client: request of %d bytes exceeds the %d-byte frame limit", len(req), server.MaxFrame)
	}
	if server.RefusedByKind(c.flags, req[0]) {
		return r, &WireError{Code: server.ErrObserver, Msg: "refused locally: not allowed on this session kind"}
	}
	var lastErr error
	for n := 0; n <= c.maxRedials; n++ {
		if n > 0 {
			time.Sleep(c.backoff(n))
		}
		if c.conn == nil {
			if err := c.connect(); err != nil {
				if we, ok := err.(*WireError); ok && we.Code != server.ErrNotPrimary {
					return r, err // protocol rejection: retrying cannot help
				}
				// ErrNotPrimary is retryable: a standby not yet promoted.
				lastErr = err
				continue
			}
		}
		if r, err = c.send(req); err == nil {
			return r, nil
		}
		if we, ok := err.(*WireError); ok {
			if we.Code != server.ErrNotPrimary {
				return r, err
			}
			c.nextAddr() // demoted (fenced) under us: fail over and re-issue
		}
		c.KillConn()
		lastErr = err
	}
	return r, fmt.Errorf("client: request not resumable after %d redials: %w", c.maxRedials, lastErr)
}

// send writes req on the current connection and reads its reply, bounded
// by the call timeout when set.
func (c *Client) send(req []byte) (server.Reader, error) {
	if err := server.WriteFrame(c.bw, req); err != nil {
		return server.Reader{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return server.Reader{}, err
	}
	if c.killNext {
		c.killNext = false
		c.conn.Close() // reply is lost; the resume path recovers it
	}
	if c.callTimeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.callTimeout))
	}
	payload, err := server.ReadFrameInto(c.br, &c.readBuf)
	if err != nil {
		return server.Reader{}, err
	}
	if c.callTimeout > 0 {
		c.conn.SetReadDeadline(time.Time{})
	}
	return replyBody(payload)
}

// callOutcome runs a single-operation request and decodes its verdict.
func (c *Client) callOutcome(req []byte) (runtime.Outcome[int], error) {
	r, err := c.call(req)
	if err != nil {
		return runtime.Outcome[int]{}, err
	}
	out := r.Outcome()
	if r.Err || r.Rest() != 0 {
		return runtime.Outcome[int]{}, fmt.Errorf("client: malformed outcome reply")
	}
	return out, nil
}

// id reserves the next request ID.
func (c *Client) id() uint64 {
	c.nextID++
	return c.nextID
}

// planOf resolves the optional planned-crash step argument.
func planOf(plan []uint32) uint32 {
	if len(plan) == 0 {
		return 0
	}
	if len(plan) > 1 {
		panic("client: at most one planned-crash step per call")
	}
	return plan[0]
}

// Get reads key and returns its detectable outcome. An optional plan step
// p > 0 makes the server inject one crash before the operation's p-th
// primitive step (the wire form of nvm.CrashAtStep).
func (c *Client) Get(key string, plan ...uint32) (runtime.Outcome[int], error) {
	if err := checkKey(key); err != nil {
		return runtime.Outcome[int]{}, err
	}
	c.enc = server.AppendGet(c.enc[:0], c.id(), planOf(plan), key)
	return c.callOutcome(c.enc)
}

// Put writes key := val and returns its detectable outcome.
func (c *Client) Put(key string, val int, plan ...uint32) (runtime.Outcome[int], error) {
	if err := checkKey(key); err != nil {
		return runtime.Outcome[int]{}, err
	}
	c.enc = server.AppendPut(c.enc[:0], c.id(), planOf(plan), key, val)
	return c.callOutcome(c.enc)
}

// Del removes key and returns its detectable outcome.
func (c *Client) Del(key string, plan ...uint32) (runtime.Outcome[int], error) {
	if err := checkKey(key); err != nil {
		return runtime.Outcome[int]{}, err
	}
	c.enc = server.AppendDel(c.enc[:0], c.id(), planOf(plan), key)
	return c.callOutcome(c.enc)
}

// ReissueLast re-sends the most recent Get/Put/Del request byte-for-byte
// — same session, same request ID — and returns its outcome. By the
// resume semantics (docs/PROTOCOL.md) the server must replay the
// original verdict from the session's outcome window, never re-execute;
// after a failover this is the recovered window of the promoted replica.
// A chaos/verification hook, like KillConn: the failover storm uses it
// to prove a verdict was served from a replica's recovered state. Only
// valid while no newer request has been encoded.
func (c *Client) ReissueLast() (runtime.Outcome[int], error) {
	if len(c.enc) == 0 || (c.enc[0] != server.OpGet && c.enc[0] != server.OpPut && c.enc[0] != server.OpDel) {
		return runtime.Outcome[int]{}, fmt.Errorf("client: no single-key request to reissue")
	}
	return c.callOutcome(c.enc)
}

// GetRetry re-invokes Get (fresh request IDs) until the read linearizes,
// returning the value — the client-side NRL transformation.
func (c *Client) GetRetry(key string) (int, error) {
	for {
		out, err := c.Get(key)
		if err != nil {
			return 0, err
		}
		if out.Status.Linearized() {
			return out.Resp, nil
		}
	}
}

// PutRetry re-invokes Put until the write linearizes, returning the number
// of invocations spent.
func (c *Client) PutRetry(key string, val int) (int, error) {
	for n := 1; ; n++ {
		out, err := c.Put(key, val)
		if err != nil {
			return n, err
		}
		if out.Status.Linearized() {
			return n, nil
		}
	}
}

// callOutcomes runs a batched request and decodes its verdicts.
func (c *Client) callOutcomes(req []byte) ([]runtime.Outcome[int], error) {
	r, err := c.call(req)
	if err != nil {
		return nil, err
	}
	outs := make([]runtime.Outcome[int], int(r.U16()))
	for i := range outs {
		outs[i] = r.Outcome()
	}
	if r.Err || r.Rest() != 0 {
		return nil, fmt.Errorf("client: malformed batch reply")
	}
	return outs, nil
}

// MultiGet reads a batch of keys in one frame; outcomes align with keys.
func (c *Client) MultiGet(keys []string) ([]runtime.Outcome[int], error) {
	if err := checkBatch(len(keys)); err != nil {
		return nil, err
	}
	for _, k := range keys {
		if err := checkKey(k); err != nil {
			return nil, err
		}
	}
	c.enc = server.AppendMGet(c.enc[:0], c.id(), keys)
	return c.callOutcomes(c.enc)
}

// MultiPut writes a batch of entries in one frame; outcomes align with
// entries.
func (c *Client) MultiPut(entries []shardkv.KV) ([]runtime.Outcome[int], error) {
	if err := checkBatch(len(entries)); err != nil {
		return nil, err
	}
	for _, e := range entries {
		if err := checkKey(e.Key); err != nil {
			return nil, err
		}
	}
	c.enc = server.AppendMPut(c.enc[:0], c.id(), entries)
	return c.callOutcomes(c.enc)
}

// CrashShard injects a crash into shard i, or into every shard when i < 0
// — the over-the-wire form of shardkv.CrashShard / Crash.
func (c *Client) CrashShard(i int) error {
	shard := server.CrashAllShards
	if i >= 0 {
		shard = uint32(i)
	}
	_, err := c.call(server.AppendCrash(nil, c.id(), shard))
	return err
}

// Stats fetches a point-in-time snapshot of every shard's counters.
func (c *Client) Stats() ([]shardkv.StatsSnapshot, error) {
	r, err := c.call(server.AppendBare(nil, server.OpStats, c.id()))
	if err != nil {
		return nil, err
	}
	snaps := make([]shardkv.StatsSnapshot, int(r.U16()))
	for i := range snaps {
		snaps[i] = r.Snapshot()
	}
	if r.Err || r.Rest() != 0 {
		return nil, fmt.Errorf("client: malformed stats reply")
	}
	return snaps, nil
}

// Promote asks the node to become (or confirm itself as) primary,
// returning the generation number it now serves under. On a warm standby
// this installs the replicated state and starts serving; on a node that
// already promoted it is an idempotent no-op; on the original primary it
// fences the node (ErrNotPrimary for every later data op). Admin tools
// issue it over an observer session.
func (c *Client) Promote() (uint64, error) {
	r, err := c.call(server.AppendBare(nil, server.OpPromote, c.id()))
	if err != nil {
		return 0, err
	}
	gen := r.U64()
	if r.Err || r.Rest() != 0 {
		return 0, fmt.Errorf("client: malformed PROMOTE reply")
	}
	return gen, nil
}

// ServerStatus is the SERVER-STATS reply; the wire layer owns its layout.
type ServerStatus = server.ServerStatus

// ServerStats fetches the node's replication status.
func (c *Client) ServerStats() (ServerStatus, error) {
	r, err := c.call(server.AppendBare(nil, server.OpServerStats, c.id()))
	if err != nil {
		return ServerStatus{}, err
	}
	st := r.ServerStatus()
	if r.Err || r.Rest() != 0 {
		return ServerStatus{}, fmt.Errorf("client: malformed SERVER-STATS reply")
	}
	return st, nil
}

// Close ends the session (releasing its process slot server-side) and
// closes the connection. The session is gone afterwards; the Client must
// not be reused.
func (c *Client) Close() error {
	if c.conn == nil {
		if err := c.connect(); err != nil {
			return nil // session unreachable; nothing left to release cleanly
		}
	}
	_, err := c.call(server.AppendBare(nil, server.OpClose, c.id()))
	c.KillConn()
	if _, ok := err.(*WireError); err != nil && !ok {
		return err
	}
	return nil
}
