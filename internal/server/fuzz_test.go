package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"detectable/internal/durable"
	"detectable/internal/runtime"
	"detectable/internal/shardkv"
)

// Fuzz harnesses for the wire layer (wire.go): frame decoding, reply
// decoding and the server's request path (handle) against malformed,
// truncated and adversarial input. CI runs each
// briefly (-fuzz -fuzztime) on top of the committed seed corpus, and the
// seeds themselves run as ordinary unit cases on every `go test`.

// FuzzReadFrame feeds arbitrary bytes to the frame decoder and checks its
// contract: no panic, MaxFrame enforced, the returned payload aliasing the
// input's body exactly, and decode(encode(p)) == p.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0x42})
	f.Add([]byte{0, 0, 0, 5, 1, 2, 3}) // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(append([]byte{0, 1, 0, 0}, make([]byte, 65536)...))
	huge := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		payload, err := ReadFrameInto(bytes.NewReader(data), &buf)
		if err != nil {
			if len(data) >= 4 {
				if n := binary.BigEndian.Uint32(data); n <= MaxFrame && uint32(len(data)-4) >= n {
					t.Fatalf("well-formed frame rejected: %v", err)
				}
			}
			return
		}
		n := binary.BigEndian.Uint32(data)
		if uint32(len(payload)) != n {
			t.Fatalf("payload length %d, header says %d", len(payload), n)
		}
		if n > MaxFrame {
			t.Fatalf("frame of %d bytes exceeds MaxFrame yet was accepted", n)
		}
		if !bytes.Equal(payload, data[4:4+int(n)]) {
			t.Fatal("payload does not match the frame body")
		}
		// Round trip: encoding the decoded payload must reproduce it, both
		// through the plain writer and the buffered hot path.
		var out bytes.Buffer
		if err := WriteFrame(&out, payload); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := ReadFrame(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatal("round trip changed the payload")
		}
	})
}

// FuzzDecodeReply drives every client-side reply decode shape (single
// outcome, batched outcomes, hello, stats, error reply) over arbitrary
// payloads through the shared Reader, checking the cursor's contract: no
// panic, no read past the end without Err being set, and Rest never
// negative.
func FuzzDecodeReply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{StatusOK})
	f.Add(durable.AppendReply(nil, runtime.Outcome[int]{Status: runtime.StatusOK, Resp: 7}))
	f.Add(durable.AppendBatchReply(nil, []runtime.Outcome[int]{{Status: runtime.StatusRecovered, Resp: -1, Crashes: 2}}))
	f.Add(appendHelloOK(nil, 42, 3, true))
	f.Add(appendErr(nil, ErrStaleRequest, "stale"))
	f.Add([]byte{StatusOK, 0xff, 0xff}) // batched reply claiming 65535 entries
	f.Fuzz(func(t *testing.T, payload []byte) {
		check := func(r *Reader) {
			if r.Rest() < 0 {
				t.Fatalf("Rest() = %d", r.Rest())
			}
			if !r.Err && r.Rest() > len(payload) {
				t.Fatalf("cursor past the end without Err")
			}
		}
		// Single-outcome reply (client.callOutcome).
		r := NewReader(payload)
		if code := r.U8(); code != StatusOK {
			_ = ErrName(code)
			_ = r.Key() // error message
		} else {
			_ = r.Outcome()
		}
		check(r)
		// Batched reply (client.decodeOutcomes).
		r = NewReader(payload)
		if r.U8() == StatusOK {
			n := int(r.U16())
			for i := 0; i < n && !r.Err; i++ {
				_ = r.Outcome()
			}
		}
		check(r)
		// Hello reply (client.connect).
		r = NewReader(payload)
		if r.U8() == StatusOK {
			_, _, _ = r.U64(), r.U32(), r.U8()
		}
		check(r)
		// Stats reply (client.Stats).
		r = NewReader(payload)
		if r.U8() == StatusOK {
			n := int(r.U16())
			for i := 0; i < n && !r.Err; i++ {
				_ = r.Snapshot()
			}
		}
		check(r)
	})
}

// FuzzHandle feeds arbitrary request payloads to handle on a loopback
// session of each kind: no panic; fatal only with bad-request; a cell the
// admit table refuses answers exactly the table's code; and every reply
// decodes as what its status and opcode say it is.
func FuzzHandle(f *testing.F) {
	for _, mo := range matrixOps {
		f.Add(mo.frame(1))
	}
	f.Add(AppendHello(nil, 1, 0))                             // a HELLO after the first frame
	f.Add([]byte{OpMGet, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff}) // an MGET claiming 65535 keys
	f.Add(AppendPut(nil, 1, 0, "key", 7)[:15])                // a PUT cut inside its key
	f.Add(AppendGet(nil, 1, 3, "pin-7"))                      // a crash plan
	f.Fuzz(func(t *testing.T, payload []byte) {
		// A fresh node per input (PROMOTE fences it).
		srv := New(shardkv.New(2, 3))
		for k := kind(0); k < numKinds; k++ {
			ls, err := srv.newLoopback(k)
			if err != nil {
				t.Fatal(err)
			}
			role := srv.role()
			reply, closing, fatal := srv.handle(ls.sess, payload, ls.scratch)
			ls.Close()
			if len(reply) == 0 {
				t.Fatal("empty reply")
			}
			if fatal && reply[0] != ErrBadRequest {
				t.Fatalf("fatal with status %s", ErrName(reply[0]))
			}
			var op byte
			if len(payload) > 0 {
				op = payload[0]
			}
			c, isOp := classOf(op)
			if want := admit[c][role][k]; isOp && !fatal && want != StatusOK && reply[0] != want {
				t.Fatalf("op 0x%02x on a %s session answered %x, the table says %s", op, kindNames[k], reply, ErrName(want))
			}
			r := NewReader(reply[1:])
			switch {
			case reply[0] == ErrObserver || reply[0] == ErrNotPrimary:
				planned := op == OpGet && k == kindReadOnly // the one refusal the body decides
				if want := admit[c][role][k]; !isOp || want != reply[0] && !planned {
					t.Fatalf("op 0x%02x on a %s session refused with %s, the table says %s", op, kindNames[k], ErrName(reply[0]), ErrName(want))
				}
				fallthrough
			case reply[0] != StatusOK:
				r.Key()
			case op == OpGet || op == OpPut || op == OpDel:
				r.Outcome()
			case op == OpMGet || op == OpMPut:
				for n := r.U16(); n > 0 && !r.Err; n-- {
					r.Outcome()
				}
			case op == OpStats:
				for n := r.U16(); n > 0 && !r.Err; n-- {
					r.Snapshot()
				}
			case op == OpPromote:
				r.U64()
			case op == OpServerStats:
				r.ServerStatus()
			case op != OpCrash && op != OpClose:
				t.Fatalf("op 0x%02x served: %x", op, reply)
			}
			if r.Err || r.Rest() != 0 || closing != (op == OpClose && reply[0] == StatusOK) {
				t.Fatalf("op 0x%02x: reply %x does not decode as its body (closing=%v)", op, reply, closing)
			}
		}
	})
}

// TestServerStatusGolden pins the SERVER-STATS reply's bytes: both
// directions live in wire.go, and a field added there must not move these.
func TestServerStatusGolden(t *testing.T) {
	st := ServerStatus{Role: RoleStandby, Generation: 2, RecoveredReplays: 3, ReplSeq: 0x0405, ReplAcked: 6, Replicas: 7, ReplApplied: 1 << 56}
	golden := []byte{
		StatusOK, 1,
		0, 0, 0, 0, 0, 0, 0, 2,
		0, 0, 0, 0, 0, 0, 0, 3,
		0, 0, 0, 0, 0, 0, 4, 5,
		0, 0, 0, 0, 0, 0, 0, 6,
		0, 0, 0, 0, 0, 0, 0, 7,
		1, 0, 0, 0, 0, 0, 0, 0,
	}
	if got := appendServerStatus(nil, st); !bytes.Equal(got, golden) {
		t.Fatalf("SERVER-STATS reply\n got  %x\n want %x", got, golden)
	}
	r := NewReader(golden[1:])
	if got := r.ServerStatus(); got != st || r.Err || r.Rest() != 0 {
		t.Fatalf("decoded %+v (err=%v rest=%d), want %+v", got, r.Err, r.Rest(), st)
	}
}

// TestReadFrameIntoReuse pins the grow-only buffer contract the fuzz target
// relies on: consecutive frames reuse one buffer, larger frames grow it.
func TestReadFrameIntoReuse(t *testing.T) {
	var stream bytes.Buffer
	small := bytes.Repeat([]byte{1}, 8)
	large := bytes.Repeat([]byte{2}, 600)
	for _, p := range [][]byte{small, large, small} {
		if err := WriteFrame(&stream, p); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	r := io.Reader(&stream)
	for i, want := range [][]byte{small, large, small} {
		got, err := ReadFrameInto(r, &buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}
