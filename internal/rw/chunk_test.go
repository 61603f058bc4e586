package rw

import (
	"fmt"
	"math/rand"
	"testing"

	"detectable/internal/history"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
)

var allModels = []nvm.Model{nvm.ModelPrivateCache, nvm.ModelSharedCacheRaw, nvm.ModelSharedCacheAuto}

// TestChunkNeighbourEquivalence: a register handed out of a chunk behaves
// exactly like a register with a process table, a word and a bit array of
// its own. 130 registers from one table (crossing every chunk boundary:
// 1, 2, 4 … 64) and 130 standalone ones are driven by one seeded stream of
// reads, writes, planned crashes and explicit flushes, with a Space.Crash
// after every round. 2N²+N is a multiple of 64 for none of these N, so
// neighbours share machine words, and under the shared-cache models they
// share the array's revert: settling a chunk must take back exactly the
// unflushed bits of every register in it. Outcomes, every bit, R and the
// primitive count must agree throughout.
func TestChunkNeighbourEquivalence(t *testing.T) {
	const regs, rounds, opsPerRound = 130, 6, 400
	for _, m := range allModels {
		for _, n := range []int{2, 3, 8} {
			t.Run(fmt.Sprintf("%s/N=%d", m, n), func(t *testing.T) {
				chunked, alone := runtime.NewSystemModel(n, m), runtime.NewSystemModel(n, m)
				chunked.SetHistory(history.NewOff())
				alone.SetHistory(history.NewOff())
				table := NewProcs(chunked)
				var a, b [regs]Register
				for i := range a {
					a[i] = table.NewRegister(0)
					b[i] = NewInt(alone, 0)
				}
				if got, want := chunked.Space().CellCount(), regs*(2*n*n+n+1)+perTableCells(n); got != want {
					t.Fatalf("chunked CellCount = %d, want %d: spare chunk elements must not count", got, want)
				}

				rng := rand.New(rand.NewSource(int64(n)))
				for round := 0; round < rounds; round++ {
					for op := 0; op < opsPerRound; op++ {
						j, pid := rng.Intn(regs), rng.Intn(n)
						// A fresh plan per side: a CrashAtStep fires once.
						step := uint64(1 + rng.Intn(16+n))
						plan := func() []nvm.CrashPlan { return nil }
						if rng.Intn(3) == 0 {
							plan = func() []nvm.CrashPlan { return []nvm.CrashPlan{nvm.CrashAtStep(step)} }
						}
						switch rng.Intn(4) {
						case 0:
							if oa, ob := a[j].Read(pid, plan()...), b[j].Read(pid, plan()...); oa != ob {
								t.Fatalf("round %d op %d: read of register %d: chunked %+v, standalone %+v", round, op, j, oa, ob)
							}
						case 1: // persist R and a few of the register's bits
							i, p, bit := rng.Intn(n), rng.Intn(n), rng.Intn(2)
							for _, side := range []struct {
								sys *runtime.System
								reg Register
							}{{chunked, a[j]}, {alone, b[j]}} {
								ctx := side.sys.Space().AcquireCtx(pid, nil)
								side.reg.r().Flush(ctx, side.reg.i)
								side.reg.bits().Flush(ctx, side.reg.toggle(i, p, bit))
								side.reg.bits().Flush(ctx, side.reg.tp(p))
								side.sys.Space().ReleaseCtx(ctx)
							}
						default:
							val := rng.Intn(1000)
							if oa, ob := a[j].Write(pid, val, plan()...), b[j].Write(pid, val, plan()...); oa != ob {
								t.Fatalf("round %d op %d: write of register %d: chunked %+v, standalone %+v", round, op, j, oa, ob)
							}
						}
					}
					chunked.Crash()
					alone.Crash()
					for j := range a {
						requireSameState(t, round, j, a[j], b[j])
					}
					if sa, sb := chunked.Space().Stats().Total(), alone.Space().Stats().Total(); sa != sb {
						t.Fatalf("round %d: %d primitives chunked, %d standalone", round, sa, sb)
					}
				}
			})
		}
	}
}

// perTableCells is what one process table allocates: CellCount of a system
// holding a table and no register.
func perTableCells(n int) int {
	sys := runtime.NewSystem(n)
	NewProcs(sys)
	return sys.Space().CellCount()
}

func requireSameState(t *testing.T, round, j int, a, b Register) {
	t.Helper()
	if ta, tb := a.PeekTriple(), b.PeekTriple(); ta != tb {
		t.Fatalf("round %d: register %d: R = %+v chunked, %+v standalone", round, j, ta, tb)
	}
	for p := 0; p < a.N(); p++ {
		if ta, tb := a.PeekT(p), b.PeekT(p); ta != tb {
			t.Fatalf("round %d: register %d: T_%d = %d chunked, %d standalone", round, j, p, ta, tb)
		}
		for i := 0; i < a.N(); i++ {
			for bit := 0; bit < 2; bit++ {
				if xa, xb := a.PeekToggle(i, p, bit), b.PeekToggle(i, p, bit); xa != xb {
					t.Fatalf("round %d: register %d: A[%d][%d][%d] = %v chunked, %v standalone", round, j, i, p, bit, xa, xb)
				}
			}
		}
	}
}

// TestPeekOutsideRegisterPanics: in a chunk the bit after a register's last
// is its neighbour's first, so the no-Ctx inspectors refuse indices outside
// the register instead of reading it.
func TestPeekOutsideRegisterPanics(t *testing.T) {
	const n = 3
	table := NewProcs(runtime.NewSystem(n))
	table.NewRegister(0)
	reg := table.NewRegister(0) // second chunk, first element: a neighbour follows
	table.NewRegister(0)
	for name, peek := range map[string]func(){
		"PeekToggle i=N":  func() { reg.PeekToggle(n, 0, 0) },
		"PeekToggle p=N":  func() { reg.PeekToggle(0, n, 0) },
		"PeekToggle i=-1": func() { reg.PeekToggle(-1, 0, 0) },
		"PeekToggle b=2":  func() { reg.PeekToggle(0, 0, 2) },
		"PeekToggle b=-1": func() { reg.PeekToggle(0, 1, -1) },
		"PeekT p=N":       func() { reg.PeekT(n) },
		"PeekT p=-1":      func() { reg.PeekT(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s read a bit outside the register", name)
				}
			}()
			peek()
		}()
	}
}
