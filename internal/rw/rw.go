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
// A register is an element of a chunk, not an allocation, and it has a
// number: the process table numbers its registers 0, 1, 2 … in NewRegister
// order, and At(n) finds register n without a lock, so an owner keeps the
// number and nothing else (internal/kv: a key's entry number in its table
// is its register's number plus one). Chunks hold 1, 2, 4 … 64 registers,
// then 64 each, so finding one is arithmetic and one load through the chunk
// directory. A chunk is one nvm.NewWords array holding its registers' R
// words — register i's R is word i, cell base+i — and one nvm.Bits array in
// which register i owns bits [i·(2N²+N), (i+1)·(2N²+N)) — densely packed,
// so a register's bits may straddle machine words and share them with its
// neighbours'. Nothing about the algorithm changes: every word and every
// bit is still a cell with its own identity, step, statistic and —
// whenever a plan is armed — crash point.
//
// R is one 64-bit word, as the paper sizes it: the value in the high bits,
// then q in ⌈log₂N⌉ bits and b in one. A write stores a word and a line-5
// or line-20 comparison compares two, so a register owns no heap beyond its
// chunk and an operation allocates nothing. The price is the value domain:
// a register holds the signed integers of 64 − (⌈log₂N⌉+1) bits, [−2^59,
// 2^59) at N = 8 (Domain), and panics on any other before a primitive runs.
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
// contrast to the unbounded sequence numbers of Attiya et al. [3], whose
// time docs/PERFORMANCE.md §"E9" records and whose space internal/space does.
package rw

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/spec"
)

// Triple is the content of the shared register R: the application value,
// the identifier of the process that last wrote it, and the toggle-bit
// array index that write used. R holds it packed (Domain.pack); PeekTriple
// unpacks it.
type Triple struct {
	Val    int
	Q      int32
	Toggle int8
}

// Domain is the set of values an N-process register holds: the signed
// integers of 64 − (⌈log₂N⌉+1) bits, what R's word leaves beside the tag
// ⟨q, b⟩ — [−2^62, 2^62) at N = 1, [−2^59, 2^59) at N = 8.
type Domain struct {
	tag uint8 // ⌈log₂N⌉+1: the bits of q and b
}

// DomainOf returns the value domain of an n-process register.
func DomainOf(n int) Domain { return Domain{tag: uint8(bits.Len(uint(n-1)) + 1)} }

// Contains reports whether v is in the domain.
func (d Domain) Contains(v int) bool { return int64(v)<<d.tag>>d.tag == int64(v) }

// String returns the domain as a half-open interval, "[-2^59, 2^59)".
func (d Domain) String() string { return fmt.Sprintf("[-2^%d, 2^%d)", 63-d.tag, 63-d.tag) }

// pack returns R's word for ⟨v, q, b⟩: v above the tag, q in the tag's
// high ⌈log₂N⌉ bits, b in its lowest. It is injective on the domain, so two
// words are equal exactly when their triples are.
func (d Domain) pack(v, q int, b int8) int64 { return int64(v)<<d.tag | int64(q)<<1 | int64(b) }

// unpack is pack's inverse.
func (d Domain) unpack(w int64) Triple {
	mask := int32(1)<<(d.tag-1) - 1
	return Triple{Val: int(w >> d.tag), Q: int32(w>>1) & mask, Toggle: int8(w & 1)}
}

// mustContain panics unless v is in the domain.
func (d Domain) mustContain(v int) {
	if !d.Contains(v) {
		panic(fmt.Sprintf("rw: value %d is outside the register domain %v", v, d))
	}
}

// recoveryData is the private non-volatile RDp record persisted at line 4:
// the toggle index of p's in-progress write plus R's word as p read it.
type recoveryData struct {
	MToggle int8
	R       int64
}

// Procs is the per-process half of Algorithm 1 for one system: for each of
// the N processes its private RDp, its write and read announcements, and
// its pre-built operation closures. Any number of registers share one
// table (NewRegister); a process runs one operation at a time, so one RDp
// and one Ann_p per process serve them all.
type Procs struct {
	sys *runtime.System
	p   []*proc
	dom Domain

	// The registers (see NewRegister and At): n of them handed out, in
	// chunk 0 and, from the second chunk on, the directory of every chunk,
	// republished doubled when full. NewRegister fills the chunk, lists it
	// and initializes the register before it stores n, so At, which loads n
	// first, finds everything behind a number it accepts.
	n     atomic.Int32
	mu    sync.Mutex // serializes NewRegister
	first *chunk
	dir   atomic.Pointer[[]*chunk]
}

// chunk is one slab of registers: what they share. Its register i's R is
// word i and its bits start at bit i·regBits of bits.
type chunk struct {
	procs *Procs
	words nvm.Words[int64]
	bits  *nvm.Bits
}

// maxChunk caps the chunk size, which doubles from 1: a table with one
// register (NewInt) allocates exactly one chunk and no directory, and a
// store of many wastes at most 63 registers' worth of chunk.
const (
	maxChunkBits = 6
	maxChunk     = 1 << maxChunkBits
)

// locate returns the chunk of register number n and its index there:
// chunks 0 … maxChunkBits hold 1, 2, 4 … maxChunk registers, the 2·maxChunk−1
// registers numbered first, and every later chunk holds maxChunk.
func locate(n int) (c, i int) {
	if n < 2*maxChunk-1 {
		c = bits.Len(uint(n+1)) - 1
		return c, n + 1 - 1<<c
	}
	n -= 2*maxChunk - 1
	return maxChunkBits + 1 + n/maxChunk, n % maxChunk
}

// proc is process pid's entry in the table. Only pid touches it. (pid and i
// are 32 bits wide and adjacent so that the struct stays in the 192-byte size
// class; there are N of these per store.)
type proc struct {
	pid, i int32 // i: see c
	rd     *nvm.Private[recoveryData]
	wAnn   *runtime.Ann[int]
	rAnn   *runtime.Ann[int]

	// The pending operation's target register ⟨c, i⟩ and write value,
	// staged by WriteOp/ReadOp before the operation starts so the closures
	// below are built once per process and the hot path allocates nothing.
	// They are volatile helper state standing for the operation's
	// arguments, which the system hands to body and recovery function
	// alike. Plain stores on purpose: two operations run concurrently as
	// one pid are a data race the race detector reports.
	c   *chunk
	val int

	// write's descriptor has a one-element Args slice overwritten in place
	// by every WriteOp; the history log copies Args on retention, which
	// keeps the aliasing invisible.
	write runtime.Op[int]
	read  runtime.Op[int]
}

// NewProcs allocates a process table in sys's memory space.
func NewProcs(sys *runtime.System) *Procs {
	sp := sys.Space()
	ps := &Procs{sys: sys, dom: DomainOf(sys.N())}
	for pid := 0; pid < sys.N(); pid++ {
		p := &proc{
			pid:  int32(pid),
			rd:   nvm.NewPrivate(sp, recoveryData{}),
			wAnn: runtime.NewAnn[int](sp),
			rAnn: runtime.NewAnn[int](sp),
		}
		p.write = runtime.Op[int]{
			Desc:     spec.NewOp(spec.MethodWrite, 0),
			Announce: func(ctx *nvm.Ctx) { p.wAnn.Announce(ctx, "write") },
			Body:     p.writeBody,
			Recover:  p.writeRecover,
			Encode:   runtime.EncodeInt,
		}
		p.read = runtime.Op[int]{
			Desc:     spec.NewOp(spec.MethodRead),
			Announce: func(ctx *nvm.Ctx) { p.rAnn.Announce(ctx, "read") },
			Body:     p.readBody,
			Recover:  p.readRecover,
			Encode:   runtime.EncodeInt,
		}
		ps.p = append(ps.p, p)
	}
	return ps
}

// Register is an N-process detectable read/write register over the values
// of DomainOf(N): element i of a chunk, that is the chunk's word i — the
// shared word R — and the i-th run of the chunk's bit array. The value
// ⟨chunk, i⟩ is what NewRegister and At return; copies name the same
// register, and two are equal exactly when they name the same one. All
// exported methods are safe for concurrent use by distinct processes; a
// single process must not run two operations concurrently — on this
// register or on any other register of the same process table.
type Register struct {
	c *chunk
	i int
}

// r is the chunk's word array, in which word reg.i is the shared register
// R, initially ⟨vinit, 0, 0⟩ — attributing the initial value to a write by
// process 0 using toggle array 0.
func (reg Register) r() *nvm.Words[int64] { return &reg.c.words }

// bits is the chunk's bit array; this register's A[N][N][2] followed by
// T[N] start at bit i·regBits of it; see toggle and tp.
func (reg Register) bits() *nvm.Bits { return reg.c.bits }

// regBits is the number of bits a register owns: A[N][N][2] and T[N].
func (ps *Procs) regBits() int {
	n := len(ps.p)
	return 2*n*n + n
}

// NewRegister hands out the next register, numbered in call order from 0
// and initialized to vinit, that shares ps's per-process state; it panics
// if vinit is outside the domain. Registers come out of chunks whose size
// doubles from 1 to maxChunk, so creating one allocates nothing most of the
// time; its 2N²+N+1 cells count in the Space from this call on, not from
// the chunk's allocation.
func (ps *Procs) NewRegister(vinit int) Register {
	ps.dom.mustContain(vinit)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := int(ps.n.Load())
	c, i := locate(n)
	if i == 0 {
		ps.grow(c)
	}
	reg := Register{c: ps.chunk(c), i: i}
	ps.sys.Space().Spare(-(ps.regBits() + 1))
	reg.r().Init(i, ps.dom.pack(vinit, 0, 0))
	ps.n.Store(int32(n + 1))
	return reg
}

// At returns register number n, the one the (n+1)-th NewRegister handed
// out. It takes no lock and allocates nothing, and may run beside a
// NewRegister; it panics if register n has not been handed out.
func (ps *Procs) At(n int) Register {
	if uint(n) >= uint(ps.n.Load()) {
		panic("rw: register number not handed out")
	}
	c, i := locate(n)
	return Register{c: ps.chunk(c), i: i}
}

// chunk returns chunk number c, one NewRegister has listed.
func (ps *Procs) chunk(c int) *chunk {
	if c == 0 {
		return ps.first
	}
	return (*ps.dir.Load())[c]
}

// grow allocates chunk number c, all of it spare, and lists it: chunk 0 in
// first, any later one in the directory, which the second chunk creates.
// Callers hold mu.
func (ps *Procs) grow(c int) {
	size := 1 << min(c, maxChunkBits)
	sp, per := ps.sys.Space(), ps.regBits()
	ch := &chunk{
		procs: ps,
		words: nvm.NewWords(sp, size, int64(0)),
		bits:  nvm.NewBits(sp, size*per),
	}
	sp.Spare(size * (per + 1))
	if c == 0 {
		ps.first = ch
		return
	}
	var dir []*chunk
	if d := ps.dir.Load(); d != nil {
		dir = *d
	}
	if c >= len(dir) {
		grown := make([]*chunk, 2*c)
		copy(grown, dir)
		grown[0] = ps.first
		ps.dir.Store(&grown)
		dir = grown
	}
	dir[c] = ch
}

// NewInt allocates a detectable register in sys's memory space, initialized
// to vinit: a process table of its own plus one register.
func NewInt(sys *runtime.System, vinit int) Register {
	return NewProcs(sys).NewRegister(vinit)
}

// toggle is the index of A[i][p][b], the bit through which writer p
// coordinates with process i using p's toggle array b. Writer-major, so the
// N bits a write raises (lines 9–10) are adjacent: one SetRun.
func (reg Register) toggle(i, p, b int) int {
	ps := reg.c.procs
	return reg.i*ps.regBits() + (2*p+b)*len(ps.p) + i
}

// tp is the index of T_p, p's private toggle index for this register: T is
// the last N bits of the register's run.
func (reg Register) tp(p int) int {
	ps := reg.c.procs
	return (reg.i+1)*ps.regBits() - len(ps.p) + p
}

// Write performs a detectable Write(val) as process pid, following the
// crash-recovery protocol. plans optionally inject deterministic crashes.
func (reg Register) Write(pid int, val int, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	return runtime.Execute(reg.c.procs.sys, pid, reg.WriteOp(pid, val), plans...)
}

// Read performs a detectable Read() as process pid.
func (reg Register) Read(pid int, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	return runtime.Execute(reg.c.procs.sys, pid, reg.ReadOp(pid), plans...)
}

// WriteOp builds the recoverable Write operation instance for pid. Exposed
// so schedule-driven tests and the NRL wrapper can run it directly. The Op
// is pre-built per process, so the hot path allocates nothing: the target
// register and val are staged in pid's table entry and the descriptor's
// argument slot is overwritten in place. The Op therefore stays valid only
// until pid's next WriteOp or ReadOp on any register of the table. Like an
// out-of-range pid, a val outside the register's domain panics here, before
// any primitive runs.
func (reg Register) WriteOp(pid int, val int) runtime.Op[int] {
	ps := reg.c.procs
	p := ps.p[pid]
	ps.dom.mustContain(val)
	p.stage(reg)
	p.val = val
	p.write.Desc.Args[0] = val
	return p.write
}

// stage makes reg the target of pid's next operation; reg returns it.
func (p *proc) stage(reg Register) { p.c, p.i = reg.c, int32(reg.i) }
func (p *proc) reg() Register      { return Register{c: p.c, i: int(p.i)} }

func (p *proc) writeBody(ctx *nvm.Ctx) int {
	reg, pid, dom := p.reg(), int(p.pid), p.c.procs.dom
	r, bits := reg.r(), reg.bits()
	w := r.Load(ctx, reg.i) // line 1
	if !MutantSkipToggleClear {
		t := dom.unpack(w)
		bits.Store(ctx, reg.toggle(pid, int(t.Q), int(1-t.Toggle)), false) // line 2
	}
	mtoggle := b2i(bits.Load(ctx, reg.tp(pid)))           // line 3
	p.rd.Store(ctx, recoveryData{MToggle: mtoggle, R: w}) // line 4
	if r.Load(ctx, reg.i) == w {                          // line 5
		p.wAnn.SetCP(ctx, 1)                               // line 6
		r.Store(ctx, reg.i, dom.pack(p.val, pid, mtoggle)) // line 7
	}
	return p.finishWrite(ctx, mtoggle) // lines 8-13
}

func (p *proc) writeRecover(ctx *nvm.Ctx) (int, bool) {
	reg, pid := p.reg(), int(p.pid)
	d := p.rd.Load(ctx)                 // line 14
	if r := p.wAnn.Result(ctx); r.Set { // line 15
		return spec.Ack, true // line 16
	}
	switch p.wAnn.GetCP(ctx) {
	case 0: // line 17
		return 0, false // line 18
	case 1: // line 19
		t := p.c.procs.dom.unpack(d.R)
		if reg.r().Load(ctx, reg.i) == d.R &&
			!reg.bits().Load(ctx, reg.toggle(pid, int(t.Q), int(1-t.Toggle))) { // line 20
			return 0, false // line 21
		}
	}
	return p.finishWrite(ctx, d.MToggle), true // lines 22-27
}

// finishWrite is the common tail of Write (lines 8–13) and Write.Recover
// (lines 22–27): persist checkpoint 2, raise all of pid's toggle bits for
// the used array, switch the private toggle index, persist the response.
// The N toggle bits are adjacent (see toggle), so lines 9–10 are one
// SetRun: N stores and N steps, each its own crash point whenever a plan
// is armed, one atomic Or per word they span when none is.
func (p *proc) finishWrite(ctx *nvm.Ctx, mtoggle int8) int {
	reg, pid := p.reg(), int(p.pid)
	bits := reg.bits()
	p.wAnn.SetCP(ctx, 2)                                        // line 8 / 22
	bits.SetRun(ctx, reg.toggle(0, pid, int(mtoggle)), reg.N()) // lines 9-10 / 23-24
	bits.Store(ctx, reg.tp(pid), mtoggle == 0)                  // line 11 / 25: T_p := 1 - mtoggle
	p.wAnn.SetResult(ctx, spec.Ack)                             // line 12 / 26
	return spec.Ack                                             // line 13 / 27
}

// ReadOp returns the recoverable Read operation instance for pid. Per the
// paper, the recovery function re-invokes Read when no response was
// persisted; it never returns fail (a read has no effect on the object).
// Reads take no argument, so the whole Op is pre-built per process and the
// crash-free read path allocates nothing; like WriteOp it stages the target
// register and stays valid until pid's next WriteOp or ReadOp.
func (reg Register) ReadOp(pid int) runtime.Op[int] {
	p := reg.c.procs.p[pid]
	p.stage(reg)
	return p.read
}

func (p *proc) readBody(ctx *nvm.Ctx) int {
	reg := p.reg()
	v := p.c.procs.dom.unpack(reg.r().Load(ctx, reg.i)).Val
	p.rAnn.SetResult(ctx, v)
	return v
}

func (p *proc) readRecover(ctx *nvm.Ctx) (int, bool) {
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
func (reg Register) PeekTriple() Triple { return reg.c.procs.dom.unpack(reg.r().Peek(reg.i)) }

// PeekToggle returns toggle bit A[i][p][b] without a Ctx, for tests. Like
// PeekT it panics on an index outside the register: the next bit over is a
// chunk neighbour's.
func (reg Register) PeekToggle(i, p, b int) bool {
	reg.checkPID(i)
	reg.checkPID(p)
	if b != 0 && b != 1 {
		panic("rw: toggle array index out of range")
	}
	return reg.bits().Peek(reg.toggle(i, p, b))
}

// PeekT returns T_p without a Ctx, for tests.
func (reg Register) PeekT(p int) int {
	reg.checkPID(p)
	return int(b2i(reg.bits().Peek(reg.tp(p))))
}

func (reg Register) checkPID(p int) {
	if uint(p) >= uint(reg.N()) {
		panic("rw: process index out of range")
	}
}

// N returns the number of processes the register was allocated for.
func (reg Register) N() int { return len(reg.c.procs.p) }
