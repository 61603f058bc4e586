package server

// The admit matrix, pinned three ways: docs/PROTOCOL.md's table against
// the admit array cell by cell (the doc is the spec, the array the
// implementation); every (role, kind, opcode) cell driven through handle on
// a real server, expecting what the *doc* says; and the HELLO row plus one
// cell per role over TCP. A second pass bends every well-formed frame by
// one byte: malformed is bad-request and fatal in every cell.

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"detectable/internal/durable"
	"detectable/internal/runtime"
	"detectable/internal/shardkv"
	"detectable/internal/simio"
)

var (
	kindFlags = [numKinds]byte{kindData: 0, kindObserver: HelloFlagObserver, kindReadOnly: HelloFlagReadOnly}
	kindNames = [numKinds]string{kindData: "data", kindObserver: "observer", kindReadOnly: "read-only"}
	roleNames = [3]string{RolePrimary: "primary", RoleStandby: "standby", RoleFenced: "fenced"}
	opNames   = map[string]byte{
		"HELLO": OpHello, "GET": OpGet, "PUT": OpPut, "DEL": OpDel, "MGET": OpMGet, "MPUT": OpMPut,
		"CRASH": OpCrash, "STATS": OpStats, "CLOSE": OpClose, "PROMOTE": OpPromote, "SERVER-STATS": OpServerStats,
	}
)

// statusName names a cell the way the doc's table does.
func statusName(code byte) string {
	if code == StatusOK {
		return "ok"
	}
	return ErrName(code)
}

// docAdmit parses the table of docs/PROTOCOL.md §"Who may do what, where":
// the admit matrix and the class each opcode is listed under.
func docAdmit(t *testing.T) (tab [numClasses][3][numKinds]byte, classes map[byte]class) {
	t.Helper()
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	index := func(names []string, s string) int {
		for i, n := range names {
			if n == s {
				return i
			}
		}
		return -1
	}
	codes := map[string]byte{}
	for _, code := range []byte{StatusOK, ErrObserver, ErrNotPrimary} {
		codes[statusName(code)] = code
	}
	classes = make(map[byte]class)
	seen := make(map[[2]int]bool)
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(strings.Trim(line, "| "), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		c := index([]string{"hello", "read", "write", "chaos", "always"}, cells[0])
		if !strings.HasPrefix(line, "|") || c < 0 {
			continue
		}
		if len(cells) != 3+int(numKinds) {
			t.Fatalf("matrix row %q has %d cells, want %d", line, len(cells), 3+int(numKinds))
		}
		for _, name := range strings.Split(cells[1], ", ") {
			op, ok := opNames[name]
			if prev, dup := classes[op]; !ok || dup && prev != class(c) {
				t.Fatalf("matrix row %q: opcode %q unknown or listed under two classes", line, name)
			}
			classes[op] = class(c)
		}
		role := index(roleNames[:], cells[2])
		if role < 0 || seen[[2]int{c, role}] {
			t.Fatalf("matrix row %q: role unknown or row repeated", line)
		}
		seen[[2]int{c, role}] = true
		for k := range kindNames {
			code, ok := codes[cells[3+k]]
			if !ok {
				t.Fatalf("matrix row %q: cell %q is no reply status", line, cells[3+k])
			}
			tab[c][role][k] = code
		}
	}
	if len(seen) != int(numClasses)*3 {
		t.Fatalf("docs/PROTOCOL.md's matrix has %d rows, want %d", len(seen), int(numClasses)*3)
	}
	return tab, classes
}

func TestAdmitMatchesProtocolDoc(t *testing.T) {
	doc, classes := docAdmit(t)
	for c := range admit {
		for role := range admit[c] {
			for k, got := range admit[c][role] {
				if want := doc[c][role][k]; got != want {
					t.Errorf("admit[class %d][%s][%s] = %s, docs/PROTOCOL.md says %s",
						c, roleNames[role], kindNames[k], statusName(got), statusName(want))
				}
			}
		}
	}
	// What the client's local refusal (RefusedByKind) leans on: a kind
	// refused as a kind anywhere is refused as a kind on the primary.
	for c := range admit {
		for role := range admit[c] {
			for k, code := range admit[c][role] {
				if code == ErrObserver && admit[c][RolePrimary][k] != ErrObserver {
					t.Errorf("admit[class %d][%s][%s] is observer-session but the primary row is not", c, roleNames[role], kindNames[k])
				}
			}
		}
	}
	if len(classes) != len(opNames) {
		t.Errorf("the doc's matrix lists %d opcodes, the protocol has %d", len(classes), len(opNames))
	}
	for op, want := range classes {
		if got, ok := classOf(op); !ok || got != want {
			t.Errorf("classOf(0x%02x) = %d/%v, docs/PROTOCOL.md lists it under class %d", op, got, ok, want)
		}
	}
	if _, ok := classOf(0x7f); ok {
		t.Error("classOf admits 0x7f, which is no opcode")
	}
}

// matrixNode is one real server with a live session of each kind and the
// key "pin-7" = 8 wherever this node reads from.
type matrixNode struct {
	srv   *Server
	store *shardkv.Store // the (ex-)primary's store; nil on a standby
	db    *durable.DB    // nil in memory
	sess  [numKinds]*session
}

// matrixNodes are the node states the matrix is driven on: the primary
// role twice, with and without a durable log under it.
var matrixNodes = []struct {
	name  string
	role  byte
	build func(t *testing.T) *matrixNode
}{
	{"primary-mem", RolePrimary, func(t *testing.T) *matrixNode { return buildPrimary(t, false) }},
	{"primary-durable", RolePrimary, func(t *testing.T) *matrixNode { return buildPrimary(t, true) }},
	{"standby", RoleStandby, func(t *testing.T) *matrixNode {
		n := &matrixNode{}
		n.srv, n.db = streamedStandby(t, 2, 4, 8)
		n.openSessions(t)
		return n
	}},
	{"fenced", RoleFenced, func(t *testing.T) *matrixNode {
		n := buildPrimary(t, true) // its sessions predate the fence, as a demoted node's do
		if _, err := n.srv.Promote(); err != nil {
			t.Fatal(err)
		}
		return n
	}},
}

func buildPrimary(t *testing.T, dur bool) *matrixNode {
	t.Helper()
	n := &matrixNode{}
	var opts []shardkv.Option
	if dur {
		db, err := durable.OpenFs(simio.New(), "/data", 2, 4, Window)
		if err != nil {
			t.Fatal(err)
		}
		n.db, opts = db, append(opts, shardkv.Durable(db))
	}
	n.store = shardkv.New(2, 4, opts...)
	n.srv = New(n.store)
	if dur {
		if err := n.srv.AttachDurable(n.db); err != nil {
			t.Fatal(err)
		}
	}
	n.openSessions(t)
	if reply, _, _ := n.drive(n.sess[kindData], AppendPut(nil, 1, 0, "pin-7", 8)); reply[0] != StatusOK {
		t.Fatalf("preload PUT: %x", reply)
	}
	return n
}

// openSessions attaches one session of each kind. A standby admits no data
// session, so that cell gets one built by hand: unreachable over the wire,
// but the table has the cell and execute must honour it.
func (n *matrixNode) openSessions(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { n.srv.Close() })
	for k := range n.sess {
		sess, _, reply := n.srv.attach(nil, 0, kindFlags[k])
		if sess == nil {
			if n.srv.role() != RoleStandby || kind(k) != kindData {
				t.Fatalf("%s HELLO refused: %x", kindNames[k], reply)
			}
			sess = &session{id: 1 << 40, pid: 0, kind: kindData, gen: 1, window: durable.NewWindow(Window)}
		}
		n.sess[k] = sess
	}
}

// drive runs one frame the way handleConn does: handle, and on CLOSE end
// the session before the ack would leave.
func (n *matrixNode) drive(sess *session, frame []byte) (reply []byte, closing, fatal bool) {
	scratch := GetFrameBuf()
	defer PutFrameBuf(scratch)
	reply, closing, fatal = n.srv.handle(sess, frame, scratch)
	if closing {
		n.srv.endSession(sess)
	}
	return append([]byte(nil), reply...), closing, fatal
}

// nodeState is everything a refused or malformed request must leave alone.
type nodeState struct {
	Stats   shardkv.StatsSnapshot
	Durable []durable.SessionState
	Live    int
	Free    int
	Window  int
	MaxID   uint64
}

func (n *matrixNode) state(sess *session) nodeState {
	st := nodeState{Live: n.srv.Sessions(), MaxID: sess.window.Max()}
	for range sess.window.All() {
		st.Window++
	}
	if n.store != nil {
		st.Stats, st.Free = n.store.TotalStats(), n.store.FreeSlots()
	}
	if n.db != nil {
		st.Durable = n.db.Sessions()
	}
	return st
}

// matrixOps is one well-formed frame per request opcode.
var matrixOps = []struct {
	name  string
	op    byte
	frame func(id uint64) []byte
}{
	{"GET", OpGet, func(id uint64) []byte { return AppendGet(nil, id, 0, "pin-7") }},
	{"PUT", OpPut, func(id uint64) []byte { return AppendPut(nil, id, 0, "w", 5) }},
	{"DEL", OpDel, func(id uint64) []byte { return AppendDel(nil, id, 0, "pin-7") }},
	{"MGET", OpMGet, func(id uint64) []byte { return AppendMGet(nil, id, []string{"pin-7", "missing"}) }},
	{"MPUT", OpMPut, func(id uint64) []byte {
		return AppendMPut(nil, id, []shardkv.KV{{Key: "w1", Val: 1}, {Key: "w2", Val: 2}})
	}},
	{"CRASH", OpCrash, func(id uint64) []byte { return AppendCrash(nil, id, 0) }},
	{"STATS", OpStats, func(id uint64) []byte { return AppendBare(nil, OpStats, id) }},
	{"CLOSE", OpClose, func(id uint64) []byte { return AppendBare(nil, OpClose, id) }},
	{"PROMOTE", OpPromote, func(id uint64) []byte { return AppendBare(nil, OpPromote, id) }},
	{"SERVER-STATS", OpServerStats, func(id uint64) []byte { return AppendBare(nil, OpServerStats, id) }},
}

// eachCell runs fn on a fresh node for every (node, kind) pair.
func eachCell(t *testing.T, fn func(t *testing.T, role byte, k kind, build func(*testing.T) *matrixNode)) {
	for _, nd := range matrixNodes {
		for k := range kindNames {
			t.Run(nd.name+"/"+kindNames[k], func(t *testing.T) { fn(t, nd.role, kind(k), nd.build) })
		}
	}
}

// TestAdmitMatrix drives every request opcode in every cell through
// handle. A served cell must show its real effect; a refused one must
// answer exactly the doc's code, request-level, and touch nothing.
func TestAdmitMatrix(t *testing.T) {
	doc, _ := docAdmit(t)
	eachCell(t, func(t *testing.T, role byte, k kind, build func(*testing.T) *matrixNode) {
		for _, mo := range matrixOps {
			n := build(t)
			sess := n.sess[k]
			c, _ := classOf(mo.op)
			before := n.state(sess)
			const reqID = 10
			reply, closing, fatal := n.drive(sess, mo.frame(reqID))
			if fatal {
				t.Fatalf("%s: well-formed frame was fatal: %x", mo.name, reply)
			}
			if want := doc[c][role][k]; reply[0] != want {
				t.Fatalf("%s: answered %s, docs/PROTOCOL.md says %s", mo.name, statusName(reply[0]), statusName(want))
			} else if want == StatusOK {
				n.checkServed(t, mo.op, role, k, reqID, before, reply, closing)
				continue
			}
			r := NewReader(reply[1:])
			if r.Key(); r.Err || r.Rest() != 0 || closing {
				t.Fatalf("%s: refusal %x is not one clean request-level error reply", mo.name, reply)
			}
			if after := n.state(sess); !reflect.DeepEqual(before, after) {
				t.Fatalf("%s: refused, yet the node moved:\n before %+v\n after  %+v", mo.name, before, after)
			}
			if next, _, _ := n.drive(sess, AppendBare(nil, OpServerStats, reqID+1)); next[0] != StatusOK {
				t.Fatalf("%s: the request after a refusal answered %x, want it served", mo.name, next)
			}
		}
		// No cell serves a byte that is no opcode, or a second HELLO.
		for name, frame := range map[string][]byte{
			"0x7f":             {0x7f, 0, 0, 0, 0, 0, 0, 0, 9},
			"mid-stream HELLO": AppendHello(nil, 9, kindFlags[k]),
		} {
			n := build(t)
			n.checkMalformed(t, name, n.sess[k], frame)
		}
	})
}

// TestAdmitMatrixMalformed cuts one byte off every well-formed frame and
// adds one: decode comes before admit, so every cell — served or refused
// — answers bad-request and drops the connection.
func TestAdmitMatrixMalformed(t *testing.T) {
	eachCell(t, func(t *testing.T, role byte, k kind, build func(*testing.T) *matrixNode) {
		for _, mo := range matrixOps {
			frame := mo.frame(10)
			n := build(t)
			n.checkMalformed(t, mo.name+" cut", n.sess[k], frame[:len(frame)-1])
			n = build(t)
			n.checkMalformed(t, mo.name+" padded", n.sess[k], append(frame, 0))
		}
	})
}

func (n *matrixNode) checkMalformed(t *testing.T, name string, sess *session, frame []byte) {
	t.Helper()
	before := n.state(sess)
	reply, closing, fatal := n.drive(sess, frame)
	if reply[0] != ErrBadRequest || !fatal || closing {
		t.Fatalf("%s: answered %x (fatal=%v), want a fatal bad-request", name, reply, fatal)
	}
	if after := n.state(sess); !reflect.DeepEqual(before, after) {
		t.Fatalf("%s: malformed, yet the node moved:\n before %+v\n after  %+v", name, before, after)
	}
}

// checkServed asserts the real effect of a served request.
func (n *matrixNode) checkServed(t *testing.T, op, role byte, k kind, reqID uint64, before nodeState, reply []byte, closing bool) {
	t.Helper()
	r := NewReader(reply[1:])
	is := func(out runtime.Outcome[int], want int) bool {
		return out.Status == runtime.StatusOK && out.Resp == want
	}
	switch op {
	case OpGet: // the preloaded value: out of the store, or a standby's applied view
		if out := r.Outcome(); !is(out, 8) {
			t.Fatalf("GET pin-7 = %+v, want ok/8", out)
		}
	case OpMGet:
		if n := r.U16(); n != 2 || !is(r.Outcome(), 8) || !is(r.Outcome(), 0) {
			t.Fatalf("MGET reply %x, want ok/8 then ok/0", reply)
		}
	case OpPut:
		if out := r.Outcome(); out.Status != runtime.StatusOK || n.store.Peek("w") != 5 {
			t.Fatalf("PUT w := 5 answered %+v and the store holds %d", out, n.store.Peek("w"))
		}
	case OpDel:
		if out := r.Outcome(); !out.Status.Linearized() || n.store.Peek("pin-7") != 0 {
			t.Fatalf("DEL pin-7 answered %+v and the store holds %d", out, n.store.Peek("pin-7"))
		}
	case OpMPut:
		if r.U16() != 2 || !r.Outcome().Status.Linearized() || !r.Outcome().Status.Linearized() || n.store.Peek("w1") != 1 || n.store.Peek("w2") != 2 {
			t.Fatalf("MPUT reply %x, store w1=%d w2=%d", reply, n.store.Peek("w1"), n.store.Peek("w2"))
		}
	case OpCrash:
		if got := n.store.TotalStats().CrashesInjected; got != before.Stats.CrashesInjected+1 {
			t.Fatalf("CRASH served, crashesInjected %d → %d", before.Stats.CrashesInjected, got)
		}
	case OpStats:
		shards := int(r.U16())
		for i := 0; i < shards; i++ {
			r.Snapshot()
		}
		if shards != n.store.NumShards() {
			t.Fatalf("STATS reports %d shards, the store has %d", shards, n.store.NumShards())
		}
	case OpClose:
		wantLive, wantFree := before.Live-1, before.Free
		if role == RoleStandby && k == kindData {
			wantLive++ // the hand-built session was never in the table
		} else if k == kindData {
			wantFree++
		}
		if after := n.state(n.sess[k]); !closing || after.Live != wantLive || after.Free != wantFree {
			t.Fatalf("CLOSE: closing=%v, sessions %d → %d (want %d), free slots %d → %d (want %d)",
				closing, before.Live, after.Live, wantLive, before.Free, after.Free, wantFree)
		}
	case OpPromote:
		r.U64()
		wantRole := [3]byte{RolePrimary: RoleFenced, RoleStandby: RolePrimary, RoleFenced: RoleFenced}[role]
		if got := n.srv.role(); got != wantRole {
			t.Fatalf("PROMOTE on a %s node left it %s, want %s", roleNames[role], roleNames[got], roleNames[wantRole])
		}
	case OpServerStats:
		if st := r.ServerStatus(); st.Role != role {
			t.Fatalf("SERVER-STATS reports role %d on a %s node", st.Role, roleNames[role])
		}
	}
	if r.Err || r.Rest() != 0 || closing != (op == OpClose) {
		t.Fatalf("op 0x%02x: served reply %x does not decode as its body (closing=%v)", op, reply, closing)
	}
	// handle commits iff the class is write: the verdict is in the durable
	// window before it is released, and nothing else ever is.
	if c, _ := classOf(op); n.db != nil && role == RolePrimary && k == kindData && op != OpClose {
		var window durable.SessionState
		for _, ss := range n.db.Sessions() {
			if ss.SID == n.sess[k].id {
				window = ss
			}
		}
		if committed, isWrite := bytes.Equal(window.Reply(reqID), reply), c == classWrite; committed != isWrite {
			t.Fatalf("op 0x%02x: committed to the durable window = %v, want %v", op, committed, isWrite)
		}
	}
}

// TestAdmitOverTCP drives the HELLO row — whose cells handle never sees —
// and one served, one refused and one malformed request per role through
// real connections.
func TestAdmitOverTCP(t *testing.T) {
	doc, _ := docAdmit(t)
	for _, nd := range matrixNodes[1:] { // the durable primary, the standby, the fenced node
		t.Run(nd.name, func(t *testing.T) {
			n := nd.build(t)
			if err := n.srv.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			addr := n.srv.Addr().String()
			dropped := func(rc *rawConn) bool {
				_, err := ReadFrameInto(rc.br, &rc.buf)
				return err != nil
			}

			var open [numKinds]*rawConn
			for k := range kindNames {
				rc := dialRaw(t, addr)
				defer rc.c.Close()
				before := n.state(n.sess[k])
				reply := rc.roundTrip(t, AppendHello(nil, 0, kindFlags[k]))
				if want := doc[classHello][nd.role][k]; reply[0] != want {
					t.Fatalf("%s HELLO answered %s, docs/PROTOCOL.md says %s", kindNames[k], statusName(reply[0]), statusName(want))
				}
				after := n.state(n.sess[k])
				if reply[0] != StatusOK {
					// Refused before any state exists, and the connection ends.
					if !reflect.DeepEqual(before, after) || !dropped(rc) {
						t.Fatalf("refused %s HELLO left state or a live connection behind:\n before %+v\n after  %+v", kindNames[k], before, after)
					}
					continue
				}
				r := NewReader(reply[1:])
				if sid, pid := r.U64(), int32(r.U32()); sid == 0 || (pid >= 0) != (kind(k) == kindData) || after.Live != before.Live+1 {
					t.Fatalf("%s HELLO served sid=%d pid=%d, sessions %d → %d", kindNames[k], sid, pid, before.Live, after.Live)
				}
				open[k] = rc
			}

			// A HELLO names exactly one kind, and a resume names the
			// session's own. The role check still runs on the claimed kind
			// first: only a primary gets as far as the lookup for a data sid.
			obsSID := n.sess[kindObserver].id
			unknown := [3]byte{RolePrimary: ErrUnknownSession, RoleStandby: ErrNotPrimary, RoleFenced: ErrNotPrimary}[nd.role]
			wrongKind := [3]byte{RolePrimary: ErrBadRequest, RoleStandby: ErrBadRequest, RoleFenced: ErrNotPrimary}[nd.role]
			for _, h := range []struct {
				name  string
				sid   uint64
				flags byte
				want  byte
			}{
				{"observer|read-only", 0, HelloFlagObserver | HelloFlagReadOnly, ErrBadRequest},
				{"undefined bit", 0, 0x08, ErrBadRequest},
				{"replica|observer", 0, HelloFlagReplica | HelloFlagObserver, ErrBadRequest},
				{"observer resumed as read-only", obsSID, HelloFlagReadOnly, wrongKind},
				{"observer resumed as itself", obsSID, HelloFlagObserver, StatusOK},
				{"data resume of a sid this node never held", 1 << 50, 0, unknown},
			} {
				rc := dialRaw(t, addr)
				defer rc.c.Close()
				if reply := rc.roundTrip(t, AppendHello(nil, h.sid, h.flags)); reply[0] != h.want {
					t.Fatalf("HELLO %s answered %s, want %s", h.name, statusName(reply[0]), statusName(h.want))
				}
			}

			// One cell of each outcome on a live session of this role.
			var k kind
			var served, refused []byte
			switch nd.role {
			case RolePrimary: // a read-only session on the primary
				k, served, refused = kindReadOnly, AppendGet(nil, 0, 0, "pin-7"), AppendPut(nil, 0, 0, "pin-7", 99)
			case RoleStandby: // the read replica: the applied view serves, mutations go elsewhere
				k, served, refused = kindReadOnly, AppendGet(nil, 0, 0, "pin-7"), AppendDel(nil, 0, 0, "pin-7")
			case RoleFenced: // an observer may still inspect a fenced node, not drive it
				k, served, refused = kindObserver, AppendBare(nil, OpServerStats, 0), AppendBare(nil, OpStats, 0)
			}
			rc := open[k]
			c, _ := classOf(refused[0])
			for id := uint64(1); id < 4; id += 2 { // a refusal is request-level: round two is served again
				PatchReqID(served, id)
				PatchReqID(refused, id+1)
				reply := rc.roundTrip(t, served)
				if nd.role == RoleFenced {
					if st := NewReader(reply[1:]).ServerStatus(); reply[0] != StatusOK || st.Role != RoleFenced {
						t.Fatalf("SERVER-STATS on the fenced node: %x", reply)
					}
				} else if out := NewReader(reply[1:]).Outcome(); reply[0] != StatusOK || out.Resp != 8 {
					t.Fatalf("GET pin-7 over TCP: %x, want ok/8", reply)
				}
				if reply := rc.roundTrip(t, refused); reply[0] == StatusOK || reply[0] != doc[c][nd.role][k] {
					t.Fatalf("refused cell over TCP answered %x, docs/PROTOCOL.md says %s", reply, ErrName(doc[c][nd.role][k]))
				}
			}
			PatchReqID(served, 9) // a fresh ID: a replayed one is answered from the window, undecoded
			if reply := rc.roundTrip(t, served[:len(served)-1]); reply[0] != ErrBadRequest || !dropped(rc) {
				t.Fatalf("malformed frame over TCP answered %x and the connection lived", reply)
			}
		})
	}
}
