package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"unsafe"

	"detectable/internal/durable"
	"detectable/internal/runtime"
	"detectable/internal/rw"
	"detectable/internal/shardkv"
)

// Wire format (see docs/PROTOCOL.md for the normative spec):
//
//	frame   := u32(len(payload)) payload
//	request := opcode u64(reqID) body
//	reply   := status body
//
// All integers are big-endian. The client encodes requests and decodes
// replies with the helpers below; the server does the opposite. Keeping
// both directions in this one file is what keeps them in sync.

// MaxFrame bounds a frame payload; a longer length prefix is a protocol
// error and the connection is dropped.
const MaxFrame = 1 << 20

// Request opcodes.
const (
	OpHello byte = 0x01 // open or resume a session; first frame of every connection
	OpGet   byte = 0x02
	OpPut   byte = 0x03
	OpDel   byte = 0x04
	OpMGet  byte = 0x05
	OpMPut  byte = 0x06
	OpCrash byte = 0x07 // inject a shard crash (chaos/testing surface)
	OpStats byte = 0x08
	OpClose byte = 0x09 // end the session, releasing its process slot

	// OpPromote promotes a standby to primary (or fences an active
	// primary); reply is StatusOK + u64 generation. OpServerStats reports
	// the node's role, generation and replication marks. Both are served
	// to every kind of session on every node (admit.go's always class).
	OpPromote     byte = 0x0A
	OpServerStats byte = 0x0B
)

// Reply status codes. StatusOK prefixes a successful reply body; every
// other value is an error reply whose body is a u16-length message.
const (
	StatusOK          byte = durable.ReplyOK
	ErrBadRequest     byte = 0x01 // malformed frame or field (connection-fatal)
	ErrUnknownSession byte = 0x02 // HELLO named a session the server does not hold
	ErrStaleRequest   byte = 0x03 // reqID older than the session's outcome window
	ErrSlotsExhausted byte = 0x04 // every process slot is leased
	ErrObserver       byte = 0x05 // the session's kind is never served this operation (admit.go)
	ErrNotPrimary     byte = 0x06 // node is a standby or a fenced ex-primary; redial another address
)

// HELLO flags. A HELLO names exactly one kind of peer — no flag is a data
// session, which leases one of the store's N process identities — and what
// each kind is admitted to, on which node, is the admit table's business
// (admit.go; docs/PROTOCOL.md §"Who may do what, where"), not restated here.
const (
	// HelloFlagObserver requests a session without a process slot, for
	// storm drivers and stats pollers: the table's observer column.
	HelloFlagObserver byte = 0x01

	// HelloFlagReplica turns the connection into a replication stream:
	// the server replies with a HELLO-OK and then ships its write-ahead log
	// as durable.Repl* messages — a bootstrap, then the live records with
	// their barriers and commit marks (docs/REPLICATION.md) — instead of
	// serving requests; the peer sends only durable.ReplAck frames back.
	HelloFlagReplica byte = 0x02

	// HelloFlagReadOnly requests a session without a process slot whose
	// reads are answered from committed state — the one kind a standby
	// serves, which is what turns the warm replica into a read replica:
	// reads carry no outcome window, so the paper's detectability
	// guarantees are untouched by serving them from a bounded-stale copy
	// (docs/REPLICATION.md §read replicas). The table's read-only column.
	HelloFlagReadOnly byte = 0x04
)

// CrashAllShards as the shard field of OpCrash storms every shard.
const CrashAllShards = ^uint32(0)

// MaxBatch bounds MGET/MPUT entry counts; MaxKey bounds key bytes (the
// u16 length prefix). The client validates both before encoding, the
// server when decoding.
const (
	MaxBatch = 4096
	MaxKey   = 1<<16 - 1
)

// Window is how many completed request outcomes a session retains for
// replay. A client may have at most Window requests outstanding
// (pipelining); a resumed request older than the window is ErrStaleRequest.
const Window = 32

// framePool recycles frame scratch buffers across connections and
// sessions: each connection handler (and each client) checks one out for
// its lifetime, encodes every outgoing frame into it, and returns it when
// the connection ends — so steady-state framing allocates nothing.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// GetFrameBuf checks a scratch buffer out of the shared frame pool.
func GetFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

// PutFrameBuf returns a scratch buffer to the shared frame pool.
func PutFrameBuf(b *[]byte) {
	*b = (*b)[:0]
	framePool.Put(b)
}

// WriteFrame writes one length-prefixed frame. The hot paths (server
// handler, client call loop) write through WriteFrameBuffered instead:
// passing a stack header array through the io.Writer interface makes it
// escape and allocate per frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if bw, ok := w.(*bufio.Writer); ok {
		return WriteFrameBuffered(bw, payload)
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// WriteFrameBuffered writes one length-prefixed frame into bw without
// allocating: the header bytes go through WriteByte (no slice crosses an
// interface boundary), and header + payload coalesce with neighboring
// frames into a single Write of the underlying connection at the next
// Flush.
func WriteFrameBuffered(bw *bufio.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", len(payload))
	}
	n := uint32(len(payload))
	bw.WriteByte(byte(n >> 24))
	bw.WriteByte(byte(n >> 16))
	bw.WriteByte(byte(n >> 8))
	if err := bw.WriteByte(byte(n)); err != nil {
		return err
	}
	_, err := bw.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame into a fresh buffer.
func ReadFrame(r io.Reader) ([]byte, error) {
	var buf []byte
	return ReadFrameInto(r, &buf)
}

// ReadFrameInto reads one length-prefixed frame into *buf, growing it only
// when the frame exceeds its capacity — the session-owned, grow-only read
// buffer of the hot path. The header is staged in the same buffer (a
// stack array would escape through the io.Reader interface and allocate
// per frame). The returned payload aliases *buf and is valid until the
// next ReadFrameInto with the same buffer.
func ReadFrameInto(r io.Reader, buf *[]byte) ([]byte, error) {
	if cap(*buf) < 4 {
		*buf = make([]byte, 0, 512)
	}
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", n)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// appendKey appends a u16-length-prefixed key.
func appendKey(b []byte, key string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(key)))
	return append(b, key...)
}

// The Append* request encoders append one encoded request to dst and
// return the extended slice; callers on the hot path (internal/client)
// reuse one per-session scratch buffer so encoding allocates nothing; a nil
// dst allocates a fresh slice, for cold paths and tests.

// AppendHello appends a session-open (session 0) or session-resume request.
func AppendHello(dst []byte, session uint64, flags byte) []byte {
	dst = append(dst, OpHello)
	dst = binary.BigEndian.AppendUint64(dst, session)
	return append(dst, flags)
}

// AppendGet appends a single-key read; plan > 0 injects a server-side
// planned crash before that primitive step.
func AppendGet(dst []byte, reqID uint64, plan uint32, key string) []byte {
	return appendKeyed(dst, OpGet, reqID, plan, key)
}

// AppendDel appends a single-key delete.
func AppendDel(dst []byte, reqID uint64, plan uint32, key string) []byte {
	return appendKeyed(dst, OpDel, reqID, plan, key)
}

func appendKeyed(dst []byte, op byte, reqID uint64, plan uint32, key string) []byte {
	dst = append(dst, op)
	dst = binary.BigEndian.AppendUint64(dst, reqID)
	dst = binary.BigEndian.AppendUint32(dst, plan)
	return appendKey(dst, key)
}

// AppendPut appends a single-key write.
func AppendPut(dst []byte, reqID uint64, plan uint32, key string, val int) []byte {
	dst = appendKeyed(dst, OpPut, reqID, plan, key)
	return binary.BigEndian.AppendUint64(dst, uint64(int64(val)))
}

// AppendMGet appends a batched read.
func AppendMGet(dst []byte, reqID uint64, keys []string) []byte {
	dst = append(dst, OpMGet)
	dst = binary.BigEndian.AppendUint64(dst, reqID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(keys)))
	for _, k := range keys {
		dst = appendKey(dst, k)
	}
	return dst
}

// AppendMPut appends a batched write.
func AppendMPut(dst []byte, reqID uint64, entries []shardkv.KV) []byte {
	dst = append(dst, OpMPut)
	dst = binary.BigEndian.AppendUint64(dst, reqID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(entries)))
	for _, e := range entries {
		dst = appendKey(dst, e.Key)
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(e.Val)))
	}
	return dst
}

// AppendCrash appends a shard-crash injection (CrashAllShards = storm all).
func AppendCrash(dst []byte, reqID uint64, shard uint32) []byte {
	dst = append(dst, OpCrash)
	dst = binary.BigEndian.AppendUint64(dst, reqID)
	return binary.BigEndian.AppendUint32(dst, shard)
}

// AppendBare appends a request that is its opcode and request ID alone:
// OpStats, OpClose, OpPromote or OpServerStats.
func AppendBare(dst []byte, op byte, reqID uint64) []byte {
	dst = append(dst, op)
	return binary.BigEndian.AppendUint64(dst, reqID)
}

// appendErr appends an error reply.
func appendErr(dst []byte, code byte, msg string) []byte {
	dst = append(dst, code)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// appendHelloOK appends a successful HELLO reply: the session ID, the
// leased pid (observer sessions report pid -1) and whether the session was
// resumed rather than created.
func appendHelloOK(dst []byte, session uint64, pid int, resumed bool) []byte {
	dst = append(dst, StatusOK)
	dst = binary.BigEndian.AppendUint64(dst, session)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(pid)))
	if resumed {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendAck appends a body-less success reply (CRASH, CLOSE).
func appendAck(dst []byte) []byte { return append(dst, StatusOK) }

// appendStatsReply appends one snapshot per shard.
func appendStatsReply(dst []byte, snaps []shardkv.StatsSnapshot) []byte {
	dst = append(dst, StatusOK)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(snaps)))
	for _, s := range snaps {
		for _, v := range [...]uint64{
			s.Gets, s.Puts, s.Dels,
			s.OK, s.Recovered, s.Failed, s.NotInvoked,
			s.CrashesSeen, s.CrashesInjected, s.Retries,
		} {
			dst = binary.BigEndian.AppendUint64(dst, v)
		}
	}
	return dst
}

// ServerStatus is the SERVER-STATS reply: a point-in-time snapshot of a
// node's replication role and progress, served on any node — primary,
// standby or fenced — so pollers can watch a failover without being
// refused. On the wire: the role byte, then the u64 fields in this order.
type ServerStatus struct {
	Role             byte   // RolePrimary / RoleStandby / RoleFenced
	Generation       uint64 // fencing generation from the MANIFEST
	RecoveredReplays uint64 // replays served from a recovered outcome window
	ReplSeq          uint64 // last epoch anchored on this node's own disk (its committed mark)
	ReplAcked        uint64 // min barrier acked across gating subscribers; may run one ahead of ReplSeq
	Replicas         uint64 // currently attached replica streams
	// ReplApplied is the node's applied mark: on a standby, the primary
	// barrier sequence its read view has applied through; on a primary,
	// its own ReplSeq (applied ≡ committed). The replication lag a reader
	// risks is primary.ReplSeq − replica.ReplApplied ≥ 0, comparable when
	// both report the same Generation.
	ReplApplied uint64
}

// appendServerStatus appends the node-status reply.
func appendServerStatus(dst []byte, st ServerStatus) []byte {
	dst = append(dst, StatusOK, st.Role)
	for _, v := range [...]uint64{st.Generation, st.RecoveredReplays, st.ReplSeq, st.ReplAcked, st.Replicas, st.ReplApplied} {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	return dst
}

// Reader is a cursor over a frame payload. Reads past the end set Err and
// return zero values, so decode sequences check the error once at the end.
type Reader struct {
	b   []byte
	off int
	Err bool
}

// NewReader wraps payload.
func NewReader(payload []byte) *Reader { return &Reader{b: payload} }

// Rest reports how many bytes remain unread.
func (r *Reader) Rest() int { return len(r.b) - r.off }

func (r *Reader) take(n int) []byte {
	if r.off+n > len(r.b) {
		r.Err = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	v := r.take(2)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint16(v)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// batchLen reads an MGET/MPUT entry count; one above MaxBatch sets Err and
// reads as zero.
func (r *Reader) batchLen() int {
	n := int(r.U16())
	if n > MaxBatch {
		r.Err = true
		return 0
	}
	return n
}

// I64 reads a big-endian two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// value reads a PUT or MPUT value: an I64 that must lie in dom, the value
// domain of the store's registers. One outside it sets Err and reads as
// zero, so the request is refused before any of it executes.
func (r *Reader) value(dom rw.Domain) int {
	v := int(r.I64())
	if !dom.Contains(v) {
		r.Err = true
		return 0
	}
	return v
}

// Key reads a u16-length-prefixed key.
func (r *Reader) Key() string {
	n := int(r.U16())
	v := r.take(n)
	if v == nil {
		return ""
	}
	return string(v)
}

// KeyRef reads a u16-length-prefixed key without copying: the returned
// string aliases the frame payload and is valid only until the buffer the
// frame was read into is reused (the next ReadFrameInto on the same
// connection). The server's execute path uses it so the steady-state data
// path allocates no key strings; every layer that retains a key past the
// call (internal/kv's register map, internal/durable's shard mirror)
// clones it at its own retention point.
func (r *Reader) KeyRef() string {
	n := int(r.U16())
	v := r.take(n)
	if len(v) == 0 {
		return ""
	}
	return unsafe.String(&v[0], len(v))
}

// Outcome reads one encoded detectable outcome.
func (r *Reader) Outcome() runtime.Outcome[int] {
	st := runtime.Status(r.U8())
	val := int(r.I64())
	crashes := int(r.U32())
	return runtime.Outcome[int]{Status: st, Resp: val, Crashes: crashes}
}

// Snapshot reads one encoded shard stats snapshot.
func (r *Reader) Snapshot() shardkv.StatsSnapshot {
	return shardkv.StatsSnapshot{
		Gets: r.U64(), Puts: r.U64(), Dels: r.U64(),
		OK: r.U64(), Recovered: r.U64(), Failed: r.U64(), NotInvoked: r.U64(),
		CrashesSeen: r.U64(), CrashesInjected: r.U64(), Retries: r.U64(),
	}
}

// ServerStatus reads one encoded node status.
func (r *Reader) ServerStatus() ServerStatus {
	return ServerStatus{
		Role: r.U8(), Generation: r.U64(), RecoveredReplays: r.U64(),
		ReplSeq: r.U64(), ReplAcked: r.U64(), Replicas: r.U64(), ReplApplied: r.U64(),
	}
}

// ErrName names a wire error code for diagnostics.
func ErrName(code byte) string {
	switch code {
	case ErrBadRequest:
		return "bad-request"
	case ErrUnknownSession:
		return "unknown-session"
	case ErrStaleRequest:
		return "stale-request"
	case ErrSlotsExhausted:
		return "slots-exhausted"
	case ErrObserver:
		return "observer-session"
	case ErrNotPrimary:
		return "not-primary"
	default:
		return fmt.Sprintf("error-0x%02x", code)
	}
}
