package server

// Who may do what, where — the one place that knows.
//
// The paper's contract attaches to mutations: a caller learns definitively
// whether its operation linearized, so a mutation needs a process identity,
// a durable verdict and the node that owns both. A read carries no
// recovery obligation. That is the whole reason there are three session
// kinds (a data session leases a process slot; an observer and a read-only
// session lease none) and three node roles (a primary owns the store, a
// standby holds a barrier-consistent copy, a fenced ex-primary holds a copy
// frozen at demotion) — and admit is their product with the opcode classes.
//
// attach consults the table for HELLO and execute for every other opcode,
// after the frame has decoded cleanly: a malformed frame is bad-request and
// connection-fatal whatever the table would have said. A refusal from the
// table is request-level. docs/PROTOCOL.md §"Who may do what, where" prints
// this table; TestAdmitMatchesProtocolDoc compares the two cell by cell.

// kind is what a session may do, fixed at HELLO for the session's life.
type kind uint8

const (
	kindData     kind = iota // leases a process slot: one process of the model
	kindObserver             // slotless: chaos and admin only
	kindReadOnly             // slotless: reads from committed state, the kind a standby serves
	numKinds
)

// kindOf maps HELLO flags to the session kind they name. A HELLO names
// exactly one kind: observer|read-only and undefined bits are refused
// (HelloFlagReplica names the fourth kind, a replication stream, which is
// no session and never reaches here).
func kindOf(flags byte) (kind, bool) {
	switch flags {
	case 0:
		return kindData, true
	case HelloFlagObserver:
		return kindObserver, true
	case HelloFlagReadOnly:
		return kindReadOnly, true
	}
	return 0, false
}

// class groups opcodes that are admitted alike.
type class uint8

const (
	classHello  class = iota // HELLO: open or resume a session of the claimed kind
	classRead                // GET, MGET
	classWrite               // PUT, DEL, MPUT: the ops whose verdict is committed before release
	classChaos               // CRASH, STATS: drive or inspect the store
	classAlways              // CLOSE, PROMOTE, SERVER-STATS: how any node is inspected and drained
	numClasses
)

// classOf returns op's class; ok is false for a byte that is no opcode.
func classOf(op byte) (c class, ok bool) {
	switch op {
	case OpHello:
		return classHello, true
	case OpGet, OpMGet:
		return classRead, true
	case OpPut, OpDel, OpMPut:
		return classWrite, true
	case OpCrash, OpStats:
		return classChaos, true
	case OpClose, OpPromote, OpServerStats:
		return classAlways, true
	}
	return 0, false
}

const (
	yes = StatusOK      // served
	obs = ErrObserver   // the session's kind forbids it on any node: rotating would not help
	npr = ErrNotPrimary // this node does not serve it: redial another address
)

// admit[class][role][kind] is the reply status of a well-formed request:
// StatusOK to serve it, else the refusal. Rows are RolePrimary,
// RoleStandby, RoleFenced; columns are data, observer, read-only.
//
// Reading the refusals: a standby has no store, so it serves reads to the
// one kind that reads its applied view and nothing else; a fenced node's
// verdicts all belong to the promoted replica, and its state has no lag
// bound, so it refuses even reads and read-only HELLOs. An ErrObserver
// cell sits under an ErrObserver primary row: no node will ever serve it,
// so the client is not sent round its failover set (RefusedByKind). The
// standby's data column is reachable only through HELLO — a standby admits
// no data session, and promotion flips the role before it recovers any.
var admit = [numClasses][3][numKinds]byte{
	classHello: {
		RolePrimary: {yes, yes, yes},
		RoleStandby: {npr, yes, yes},
		RoleFenced:  {npr, yes, npr},
	},
	classRead: {
		RolePrimary: {yes, obs, yes},
		RoleStandby: {npr, npr, yes},
		RoleFenced:  {npr, npr, npr},
	},
	classWrite: {
		RolePrimary: {yes, obs, obs},
		RoleStandby: {npr, npr, npr},
		RoleFenced:  {npr, npr, npr},
	},
	classChaos: {
		RolePrimary: {yes, yes, obs},
		RoleStandby: {npr, npr, obs},
		RoleFenced:  {npr, npr, npr},
	},
	classAlways: {
		RolePrimary: {yes, yes, yes},
		RoleStandby: {yes, yes, yes},
		RoleFenced:  {yes, yes, yes},
	},
}

// RefusedByKind reports whether a session opened with flags can never be
// served op, on any node: the primary row answers ErrObserver. The client
// asks before sending, so a doomed request costs no round trip and no
// failover sweep.
func RefusedByKind(flags, op byte) bool {
	k, known := kindOf(flags)
	c, isOp := classOf(op)
	return known && isOp && admit[c][RolePrimary][k] == ErrObserver
}

// appendRefusal appends the error reply for a refused cell.
func appendRefusal(dst []byte, code, role byte) []byte {
	switch {
	case code == ErrObserver:
		return appendErr(dst, code, "operation not allowed on this session kind")
	case role == RoleStandby:
		return appendErr(dst, code, "standby: not serving this until promoted")
	default:
		return appendErr(dst, code, "fenced: this node was demoted")
	}
}

// role is this node's current role, from atomics only: execute runs under
// a session lock and must not take srv.mu (attach holds srv.mu before
// session locks).
func (srv *Server) role() byte {
	if srv.standby.Load() != nil {
		return RoleStandby
	}
	if srv.fenced.Load() {
		return RoleFenced
	}
	return RolePrimary
}
