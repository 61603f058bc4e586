// Package rw implements Algorithm 1 of the paper: the first wait-free
// bounded-space detectable read/write register.
//
// The register's state is one shared cell R holding a triple ⟨v, q, b⟩ —
// the current value, the process that last wrote it, and the index of the
// toggle-bit array that write used — plus a 3-dimensional boolean array
// A[N][N][2] of per-process toggle bits. Each process p owns two private
// non-volatile variables: RDp (recovery data) and Tp (which of p's two
// toggle-bit arrays the next write uses).
//
// The state is stored at the paper's granularity. What belongs to a
// register — R, A and, because it says which of p's arrays *this*
// register's next write uses, T — is a Register: one word for R and a run
// of 2N²+N bits. What the model gives a process once — RDp and the
// announcement Ann_p — lives in a process table, Procs, shared by every
// register allocated from it (internal/kv allocates one per store).
//
// A register is an element of a chunk, not an allocation, and a Register
// is the 16-byte handle ⟨chunk, index⟩ that names it — a value, kept
// wherever its owner keeps it (internal/kv: in the key's table entry). The
// process table hands registers out of slabs of up to 64: one nvm.NewWords
// array holding their R words and one nvm.Bits array in which register i
// owns bits [i·(2N²+N), (i+1)·(2N²+N)) — densely packed, so a register's
// bits may straddle machine words and share them with its neighbours'.
// Nothing about the algorithm changes: every word and every bit is still a
// cell with its own identity, step, statistic and crash point, and a
// register's own heap beyond the chunk is the boxes of R's triple, which Go
// needs because it has no 128-bit CAS. The tag those boxes carry is the
// paper's: Q is 32 bits and Toggle 8 where the paper needs ⌈log N⌉ and 1,
// so a boxed ⟨int, q, b⟩ is 16 bytes.
//
// Sharing RDp between registers is sound because recovery uses it only at
// checkpoint ≥ 1, and the operation that set the checkpoint (line
// 6) wrote RDp first (line 4): a stale RDp left by an operation on another
// register is read at line 14 but never acted on, since Announce reset the
// checkpoint to 0 and the response to ⊥ before the body ran, and a crash
// inside Announce is StatusNotInvoked and runs no recovery at all.
//
// The toggle bits solve the ABA problem that bounded space exposes: a
// recovering process p that reads the same triple from R as before the
// crash cannot tell, from R alone, whether other writes happened in
// between. The key invariant (used in lines 19–21 of the pseudo-code): for
// the last writer q to reuse the same toggle-bit index, it must first
// complete a write with the *other* index, and completing that write sets
// all of q's toggle bits of that other array to 1 — including the bit p
// zeroed at line 2. So upon recovery, "R unchanged AND my bit still 0"
// certifies that no write was linearized in the interval, and the recovery
// function may safely return fail.
//
// Everything is bounded: R stores the value plus ⌈log N⌉+1 bits, A stores
// 2N² bits, and each process persists one value and ⌈log N⌉+2 bits — in
// contrast to the unbounded sequence numbers of Attiya et al. [3]
// (implemented in internal/baseline for comparison).
package rw

import (
	"sync"

	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/spec"
)

// Triple is the content of the shared register R: the application value,
// the identifier of the process that last wrote it, and the toggle-bit
// array index that write used.
type Triple[V comparable] struct {
	Val    V
	Q      int32
	Toggle int8
}

// recoveryData is the private non-volatile RDp record persisted at line 4:
// the toggle index of p's in-progress write plus the triple p read from R.
type recoveryData[V comparable] struct {
	MToggle int8
	R       Triple[V]
}

// Procs is the per-process half of Algorithm 1 for one system: for each of
// the N processes its private RDp, its write and read announcements, and
// its pre-built operation closures. Any number of registers share one
// table (NewRegister); a process runs one operation at a time, so one RDp
// and one Ann_p per process serve them all.
type Procs[V comparable] struct {
	sys *runtime.System
	enc func(V) int
	p   []*proc[V]

	// The register slab (see NewRegister): the newest chunk, the index of
	// its first element not handed out yet and its size.
	mu         sync.Mutex
	last       *chunk[V]
	next, size int32
}

// chunk is one slab of registers: what they share. Register i's R is word i
// and its bits start at bit i·regBits of bits.
type chunk[V comparable] struct {
	procs *Procs[V]
	words nvm.Words[Triple[V]]
	bits  *nvm.Bits
}

// maxChunk caps the chunk size, which doubles from 1: a table with one
// register (New) allocates exactly one, and a store of many wastes at most
// 63 registers' worth of chunk.
const maxChunk = 64

// proc is process pid's entry in the table. Only pid touches it. (pid and i
// are 32 bits wide and adjacent so that the struct stays in the 192-byte size
// class; there are N of these per store.)
type proc[V comparable] struct {
	pid, i int32 // i: see c
	rd     *nvm.Private[recoveryData[V]]
	wAnn   *runtime.Ann[int]
	rAnn   *runtime.Ann[V]

	// The pending operation's target register ⟨c, i⟩ and write value,
	// staged by WriteOp/ReadOp before the operation starts so the closures
	// below are built once per process and the hot path allocates nothing.
	// They are volatile helper state standing for the operation's
	// arguments, which the system hands to body and recovery function
	// alike. Plain stores on purpose: two operations run concurrently as
	// one pid are a data race the race detector reports.
	c   *chunk[V]
	val V

	// write's descriptor has a one-element Args slice overwritten in place
	// by every WriteOp; the history log copies Args on retention, which
	// keeps the aliasing invisible.
	write runtime.Op[int]
	read  runtime.Op[V]
}

// NewProcs allocates a process table in sys's memory space. enc encodes
// values for history logging (use runtime.EncodeInt for V = int).
func NewProcs[V comparable](sys *runtime.System, enc func(V) int) *Procs[V] {
	sp := sys.Space()
	ps := &Procs[V]{sys: sys, enc: enc}
	for pid := 0; pid < sys.N(); pid++ {
		p := &proc[V]{
			pid:  int32(pid),
			rd:   nvm.NewPrivate(sp, recoveryData[V]{}),
			wAnn: runtime.NewAnn[int](sp),
			rAnn: runtime.NewAnn[V](sp),
		}
		p.write = runtime.Op[int]{
			Desc:     spec.NewOp(spec.MethodWrite, 0),
			Announce: func(ctx *nvm.Ctx) { announce(ctx, p.wAnn, "write") },
			Body:     p.writeBody,
			Recover:  p.writeRecover,
			Encode:   runtime.EncodeInt,
		}
		p.read = runtime.Op[V]{
			Desc:     spec.NewOp(spec.MethodRead),
			Announce: func(ctx *nvm.Ctx) { announce(ctx, p.rAnn, "read") },
			Body:     p.readBody,
			Recover:  p.readRecover,
			Encode:   enc,
		}
		ps.p = append(ps.p, p)
	}
	return ps
}

// announce is the caller-side announcement (see MutantSkipAnnounceReset).
func announce[R comparable](ctx *nvm.Ctx, ann *runtime.Ann[R], op string) {
	if mutant == MutantSkipAnnounceReset {
		ann.Op.Store(ctx, op)
		return
	}
	ann.Announce(ctx, op)
}

// Register is an N-process detectable read/write register over value domain
// V: element i of a chunk, that is the chunk's word i — the shared word R —
// and the i-th run of the chunk's bit array. It is a handle, 16 bytes,
// passed and stored by value; copies name the same register. All exported
// methods are safe for concurrent use by distinct processes; a single
// process must not run two operations concurrently — on this register or on
// any other register of the same process table.
type Register[V comparable] struct {
	c *chunk[V]
	i int
}

// r is the shared register R, initially ⟨vinit, 0, 0⟩ — attributing the
// initial value to a write by process 0 using toggle array 0.
func (reg Register[V]) r() nvm.CASRegister[Triple[V]] { return reg.c.words.At(reg.i) }

// bits is the chunk's bit array; this register's A[N][N][2] followed by
// T[N] start at bit i·regBits of it; see toggle and tp.
func (reg Register[V]) bits() *nvm.Bits { return reg.c.bits }

// regBits is the number of bits a register owns: A[N][N][2] and T[N].
func (ps *Procs[V]) regBits() int {
	n := len(ps.p)
	return 2*n*n + n
}

// NewRegister hands out a register initialized to vinit that shares ps's
// per-process state. Registers come out of chunks whose size doubles from
// 1 to maxChunk, so creating one allocates nothing most of the time; its
// 2N²+N+1 cells count in the Space from this call on, not from the chunk's
// allocation.
func (ps *Procs[V]) NewRegister(vinit V) Register[V] {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.next == ps.size {
		ps.grow()
	}
	reg := Register[V]{c: ps.last, i: int(ps.next)}
	ps.next++
	ps.sys.Space().Spare(-(ps.regBits() + 1))
	reg.r().Init(Triple[V]{Val: vinit})
	return reg
}

// grow allocates the next chunk, all of it spare. Callers hold mu.
func (ps *Procs[V]) grow() {
	ps.size = min(max(2*ps.size, 1), maxChunk)
	sp, per := ps.sys.Space(), ps.regBits()
	ps.last = &chunk[V]{
		procs: ps,
		words: nvm.NewWords(sp, int(ps.size), Triple[V]{}),
		bits:  nvm.NewBits(sp, int(ps.size)*per),
	}
	ps.next = 0
	sp.Spare(int(ps.size) * (per + 1))
}

// New allocates a detectable register in sys's memory space, initialized to
// vinit: a process table of its own plus one register.
func New[V comparable](sys *runtime.System, vinit V, enc func(V) int) Register[V] {
	return NewProcs(sys, enc).NewRegister(vinit)
}

// NewInt allocates a detectable register over int values.
func NewInt(sys *runtime.System, vinit int) Register[int] {
	return New(sys, vinit, runtime.EncodeInt)
}

// toggle is the index of A[i][p][b], the bit through which writer p
// coordinates with process i using p's toggle array b. Writer-major, so the
// N bits a write raises (lines 9–10) sit in one word.
func (reg Register[V]) toggle(i, p, b int) int {
	ps := reg.c.procs
	return reg.i*ps.regBits() + (2*p+b)*len(ps.p) + i
}

// tp is the index of T_p, p's private toggle index for this register: T is
// the last N bits of the register's run.
func (reg Register[V]) tp(p int) int {
	ps := reg.c.procs
	return (reg.i+1)*ps.regBits() - len(ps.p) + p
}

// Write performs a detectable Write(val) as process pid, following the
// crash-recovery protocol. plans optionally inject deterministic crashes.
func (reg Register[V]) Write(pid int, val V, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	return runtime.Execute(reg.c.procs.sys, pid, reg.WriteOp(pid, val), plans...)
}

// Read performs a detectable Read() as process pid.
func (reg Register[V]) Read(pid int, plans ...nvm.CrashPlan) runtime.Outcome[V] {
	return runtime.Execute(reg.c.procs.sys, pid, reg.ReadOp(pid), plans...)
}

// WriteOp builds the recoverable Write operation instance for pid. Exposed
// so schedule-driven tests and the NRL wrapper can run it directly. The Op
// is pre-built per process, so the hot path allocates nothing: the target
// register and val are staged in pid's table entry and the descriptor's
// argument slot is overwritten in place. The Op therefore stays valid only
// until pid's next WriteOp or ReadOp on any register of the table.
func (reg Register[V]) WriteOp(pid int, val V) runtime.Op[int] {
	p := reg.c.procs.p[pid]
	p.stage(reg)
	p.val = val
	p.write.Desc.Args[0] = reg.c.procs.enc(val)
	return p.write
}

// stage makes reg the target of pid's next operation; reg returns it.
func (p *proc[V]) stage(reg Register[V]) { p.c, p.i = reg.c, int32(reg.i) }
func (p *proc[V]) reg() Register[V]      { return Register[V]{c: p.c, i: int(p.i)} }

func (p *proc[V]) writeBody(ctx *nvm.Ctx) int {
	reg, pid := p.reg(), int(p.pid)
	r, bits := reg.r(), reg.bits()
	t := r.Load(ctx) // line 1
	if mutant != MutantSkipToggleClear {
		bits.Store(ctx, reg.toggle(pid, int(t.Q), int(1-t.Toggle)), false) // line 2
	}
	mtoggle := b2i(bits.Load(ctx, reg.tp(pid)))              // line 3
	p.rd.Store(ctx, recoveryData[V]{MToggle: mtoggle, R: t}) // line 4
	if r.Load(ctx) == t {                                    // line 5
		p.wAnn.SetCP(ctx, 1)                                                // line 6
		r.Store(ctx, Triple[V]{Val: p.val, Q: int32(pid), Toggle: mtoggle}) // line 7
	}
	return p.finishWrite(ctx, mtoggle) // lines 8-13
}

func (p *proc[V]) writeRecover(ctx *nvm.Ctx) (int, bool) {
	reg, pid := p.reg(), int(p.pid)
	d := p.rd.Load(ctx)                 // line 14
	if r := p.wAnn.Result(ctx); r.Set { // line 15
		return spec.Ack, true // line 16
	}
	switch p.wAnn.GetCP(ctx) {
	case 0: // line 17
		return 0, false // line 18
	case 1: // line 19
		if reg.r().Load(ctx) == d.R &&
			!reg.bits().Load(ctx, reg.toggle(pid, int(d.R.Q), int(1-d.R.Toggle))) { // line 20
			return 0, false // line 21
		}
	}
	return p.finishWrite(ctx, d.MToggle), true // lines 22-27
}

// finishWrite is the common tail of Write (lines 8–13) and Write.Recover
// (lines 22–27): persist checkpoint 2, raise all of pid's toggle bits for
// the used array, switch the private toggle index, persist the response.
func (p *proc[V]) finishWrite(ctx *nvm.Ctx, mtoggle int8) int {
	reg, pid := p.reg(), int(p.pid)
	bits := reg.bits()
	p.wAnn.SetCP(ctx, 2)           // line 8 / 22
	for i := 0; i < reg.N(); i++ { // lines 9-10 / 23-24
		bits.Store(ctx, reg.toggle(i, pid, int(mtoggle)), true)
	}
	bits.Store(ctx, reg.tp(pid), mtoggle == 0) // line 11 / 25: T_p := 1 - mtoggle
	p.wAnn.SetResult(ctx, spec.Ack)            // line 12 / 26
	return spec.Ack                            // line 13 / 27
}

// ReadOp returns the recoverable Read operation instance for pid. Per the
// paper, the recovery function re-invokes Read when no response was
// persisted; it never returns fail (a read has no effect on the object).
// Reads take no argument, so the whole Op is pre-built per process and the
// crash-free read path allocates nothing; like WriteOp it stages the target
// register and stays valid until pid's next WriteOp or ReadOp.
func (reg Register[V]) ReadOp(pid int) runtime.Op[V] {
	p := reg.c.procs.p[pid]
	p.stage(reg)
	return p.read
}

func (p *proc[V]) readBody(ctx *nvm.Ctx) V {
	t := p.reg().r().Load(ctx)
	p.rAnn.SetResult(ctx, t.Val)
	return t.Val
}

func (p *proc[V]) readRecover(ctx *nvm.Ctx) (V, bool) {
	if r := p.rAnn.Result(ctx); r.Set {
		return r.Val, true
	}
	return p.readBody(ctx), true
}

func b2i(b bool) int8 {
	if b {
		return 1
	}
	return 0
}

// PeekTriple returns the shared register's current triple without a Ctx,
// for test assertions and checkers.
func (reg Register[V]) PeekTriple() Triple[V] { return reg.r().Peek() }

// PeekToggle returns toggle bit A[i][p][b] without a Ctx, for tests. Like
// PeekT it panics on an index outside the register: the next bit over is a
// chunk neighbour's.
func (reg Register[V]) PeekToggle(i, p, b int) bool {
	reg.checkPID(i)
	reg.checkPID(p)
	if b != 0 && b != 1 {
		panic("rw: toggle array index out of range")
	}
	return reg.bits().Peek(reg.toggle(i, p, b))
}

// PeekT returns T_p without a Ctx, for tests.
func (reg Register[V]) PeekT(p int) int {
	reg.checkPID(p)
	return int(b2i(reg.bits().Peek(reg.tp(p))))
}

func (reg Register[V]) checkPID(p int) {
	if uint(p) >= uint(reg.N()) {
		panic("rw: process index out of range")
	}
}

// N returns the number of processes the register was allocated for.
func (reg Register[V]) N() int { return len(reg.c.procs.p) }
