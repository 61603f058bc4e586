package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"detectable/internal/runtime"
)

// Fuzz harnesses for the wire layer (wire.go): frame decoding and reply
// decoding against malformed, truncated and adversarial input. CI runs each
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
	f.Add(appendOutcomeReply(nil, runtime.Outcome[int]{Status: runtime.StatusOK, Resp: 7}))
	f.Add(appendOutcomesReply(nil, []runtime.Outcome[int]{{Status: runtime.StatusRecovered, Resp: -1, Crashes: 2}}))
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
