package server

import "encoding/binary"

// LoopbackSession drives the server's full request path — header decode,
// outcome-window check, execute, reply encode, outcome-window record — without a
// socket. Benchmarks and allocation pins use it to measure exactly the
// per-request serving cost (TestAllocPinServedMultiPut pins the MPUT path
// at zero allocations per op with it); the framing layer it skips is
// covered by its own pins.
//
// The session it wraps leases a real process slot but is not registered
// with the server's session table, so it cannot be resumed or reaped;
// Close releases the slot. Not safe for concurrent use.
type LoopbackSession struct {
	srv     *Server
	sess    *session
	scratch *[]byte
	nextID  uint64
}

// NewLoopbackSession leases a process slot and returns a loopback session
// over srv. Callers must Close it.
func (srv *Server) NewLoopbackSession() (*LoopbackSession, error) { return srv.newLoopback(kindData) }

// newLoopback is NewLoopbackSession for any kind; the slotless ones are
// what tests pin the standby's serving path with.
func (srv *Server) newLoopback(k kind) (*LoopbackSession, error) {
	srv.mu.Lock()
	sess, err := srv.newSession(k)
	srv.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &LoopbackSession{srv: srv, sess: sess, scratch: GetFrameBuf(), nextID: 1}, nil
}

// Handle processes one request payload (opcode + reqID + body, as built by
// the Append* encoders) and returns the encoded reply. The reply aliases
// the session's scratch and is valid until the next Handle call.
func (ls *LoopbackSession) Handle(payload []byte) []byte {
	reply, _, _ := ls.srv.handle(ls.sess, payload, ls.scratch)
	return reply
}

// NextID returns a fresh strictly-increasing request ID.
func (ls *LoopbackSession) NextID() uint64 {
	id := ls.nextID
	ls.nextID++
	return id
}

// PatchReqID overwrites the request ID of an encoded request payload in
// place, so benchmark loops can reuse one encoded frame without
// re-encoding (a replayed ID would short-circuit into the window instead
// of exercising the execute path).
func PatchReqID(payload []byte, reqID uint64) {
	binary.BigEndian.PutUint64(payload[1:], reqID)
}

// Close releases the session's process slot (if any) and scratch buffer.
func (ls *LoopbackSession) Close() {
	if ls.sess.pid >= 0 {
		ls.srv.store.Load().ReleaseProc(ls.sess.pid)
	}
	PutFrameBuf(ls.scratch)
	ls.scratch = nil
}
