package server_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"testing"

	"detectable/internal/client"
	"detectable/internal/runtime"
	"detectable/internal/server"
)

// rawDial opens a plain TCP connection, for driving the protocol byte by
// byte.
func rawDial(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	return conn, bufio.NewReader(conn)
}

// hello performs the handshake on a raw connection and returns the session
// ID.
func hello(t *testing.T, conn net.Conn, br *bufio.Reader, sid uint64) uint64 {
	t.Helper()
	if err := server.WriteFrame(conn, server.AppendHello(nil, sid, 0)); err != nil {
		t.Fatalf("hello write: %v", err)
	}
	payload, err := server.ReadFrame(br)
	if err != nil {
		t.Fatalf("hello read: %v", err)
	}
	r := server.NewReader(payload)
	if code := r.U8(); code != server.StatusOK {
		t.Fatalf("hello rejected: %s", server.ErrName(code))
	}
	return r.U64()
}

// frameBytes renders payload as it crosses the wire: length prefix + body.
func frameBytes(payload []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return append(b, payload...)
}

// TestResumeKillAtEveryByte is the crashsweep pattern of internal/kv lifted
// to the connection layer: the "injectable steps" of a remote PUT are the
// bytes of its request frame. For every prefix length, the connection is
// killed after exactly that many bytes; the client then reconnects,
// resumes the session and re-issues the same request ID. The resumed
// request must return a definite verdict, the store must agree with it,
// the write must have executed exactly once (never zero, never twice), and
// replaying the request ID again must return the byte-identical reply —
// the persisted original verdict.
func TestResumeKillAtEveryByte(t *testing.T) {
	payload := server.AppendPut(nil, 1, 0, "k", 9)
	frame := frameBytes(payload)

	for cut := 1; cut <= len(frame); cut++ {
		srv, store := startServer(t, 1, 2)
		addr := srv.Addr().String()

		conn1, br1 := rawDial(t, addr)
		sid := hello(t, conn1, br1, 0)
		if _, err := conn1.Write(frame[:cut]); err != nil {
			t.Fatalf("cut %d: partial write: %v", cut, err)
		}
		conn1.Close() // the crash: volatile connection state is gone

		conn2, br2 := rawDial(t, addr)
		if got := hello(t, conn2, br2, sid); got != sid {
			t.Fatalf("cut %d: resume returned session %d, want %d", cut, got, sid)
		}
		if err := server.WriteFrame(conn2, payload); err != nil {
			t.Fatalf("cut %d: re-issue: %v", cut, err)
		}
		reply, err := server.ReadFrame(br2)
		if err != nil {
			t.Fatalf("cut %d: reply: %v", cut, err)
		}
		r := server.NewReader(reply)
		if code := r.U8(); code != server.StatusOK {
			t.Fatalf("cut %d: re-issue rejected: %s", cut, server.ErrName(code))
		}
		out := r.Outcome()
		if !out.Status.Linearized() {
			// No crash plan and no storm: the only non-linearized verdicts
			// would come from a server-side crash that never happened.
			t.Fatalf("cut %d: resumed verdict %v, want linearized", cut, out.Status)
		}
		if got := store.Peek("k"); got != 9 {
			t.Fatalf("cut %d: store holds %d after linearized put, want 9", cut, got)
		}
		if puts := store.TotalStats().Puts; puts != 1 {
			t.Fatalf("cut %d: put executed %d times, want exactly once", cut, puts)
		}

		// Replaying the same request ID must return the original reply
		// verbatim, however many times it is asked for.
		for i := 0; i < 2; i++ {
			if err := server.WriteFrame(conn2, payload); err != nil {
				t.Fatalf("cut %d: replay write: %v", cut, err)
			}
			replay, err := server.ReadFrame(br2)
			if err != nil {
				t.Fatalf("cut %d: replay read: %v", cut, err)
			}
			if !bytes.Equal(replay, reply) {
				t.Fatalf("cut %d: replay %x differs from original reply %x", cut, replay, reply)
			}
		}
		if puts := store.TotalStats().Puts; puts != 1 {
			t.Fatalf("cut %d: replays re-executed the put (%d executions)", cut, puts)
		}

		conn2.Close()
		srv.Close()
	}
}

// TestResumePlanSweepWithKill combines both failure axes: the PUT carries a
// planned server-side crash at every injectable step AND the connection is
// severed after the request is sent, so the reply is lost. The client's
// transparent resume must recover the original persisted verdict, and the
// store must agree with it.
func TestResumePlanSweepWithKill(t *testing.T) {
	const oldVal, newVal = 3, 11
	const sweepLimit = 40
	sawFail, sawRecovered := false, false
	for step := uint32(1); ; step++ {
		if step > sweepLimit {
			t.Fatalf("no crash-free run within %d steps; raise sweepLimit", sweepLimit)
		}
		srv, store := startServer(t, 1, 2)
		c, err := client.Dial(srv.Addr().String())
		if err != nil {
			t.Fatalf("step %d: dial: %v", step, err)
		}
		if _, err := c.Put("k", oldVal); err != nil {
			t.Fatalf("step %d: seed put: %v", step, err)
		}

		c.KillAfterNextSend()
		out, err := c.Put("k", newVal, step)
		if err != nil {
			t.Fatalf("step %d: put with kill: %v", step, err)
		}
		if c.Resumes() == 0 {
			t.Fatalf("step %d: kill did not force a session resume", step)
		}
		got := store.Peek("k")
		switch out.Status {
		case runtime.StatusOK, runtime.StatusRecovered:
			sawRecovered = sawRecovered || out.Status == runtime.StatusRecovered
			if got != newVal {
				t.Fatalf("step %d: verdict %v but k = %d, want %d", step, out.Status, got, newVal)
			}
		case runtime.StatusFailed, runtime.StatusNotInvoked:
			sawFail = sawFail || out.Status == runtime.StatusFailed
			if got != oldVal {
				t.Fatalf("step %d: verdict %v but k = %d, want %d", step, out.Status, got, oldVal)
			}
		default:
			t.Fatalf("step %d: indefinite outcome %+v", step, out)
		}
		// Exactly two PUT executions ever: the seed and the killed one —
		// the resume replayed, it did not re-execute.
		if puts := store.TotalStats().Puts; puts != 2 {
			t.Fatalf("step %d: %d put executions, want 2 (seed + exactly-once kill)", step, puts)
		}
		c.Close()
		srv.Close()

		if out.Status == runtime.StatusOK {
			if !sawFail || !sawRecovered {
				t.Fatalf("sweep ended at step %d without both verdicts (fail=%v recovered=%v)",
					step, sawFail, sawRecovered)
			}
			return
		}
	}
}

// TestStaleRequestID pins the window rule: a request ID at or below the
// session's high-water mark that is no longer cached is refused, not
// re-executed.
func TestStaleRequestID(t *testing.T) {
	srv, _ := startServer(t, 1, 1)
	conn, br := rawDial(t, srv.Addr().String())
	hello(t, conn, br, 0)

	// Jump the request ID far ahead, then ask for an evicted one.
	for _, reqID := range []uint64{1, 1 + server.Window} {
		if err := server.WriteFrame(conn, server.AppendPut(nil, reqID, 0, "k", 1)); err != nil {
			t.Fatalf("put %d: %v", reqID, err)
		}
		if _, err := server.ReadFrame(br); err != nil {
			t.Fatalf("put %d reply: %v", reqID, err)
		}
	}
	if err := server.WriteFrame(conn, server.AppendPut(nil, 1, 0, "k", 2)); err != nil {
		t.Fatalf("stale put: %v", err)
	}
	reply, err := server.ReadFrame(br)
	if err != nil {
		t.Fatalf("stale reply: %v", err)
	}
	if code := server.NewReader(reply).U8(); code != server.ErrStaleRequest {
		t.Fatalf("stale request returned %s, want stale-request", server.ErrName(code))
	}
	conn.Close()
}
