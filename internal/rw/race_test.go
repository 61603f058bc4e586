package rw

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"detectable/internal/nvm"
	"detectable/internal/runtime"
)

// TestRaceStress is a short stress run aimed at the race detector: writer
// and reader processes with random crash plans, a crash-storm goroutine
// advancing the epoch, and a peeker hammering the no-Ctx inspection paths
// — every cross-goroutine access the package exposes, racing at once.
func TestRaceStress(t *testing.T) {
	const procs = 4
	sys := runtime.NewSystem(procs)
	reg := NewInt(sys, 0)

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // crash storm
		defer aux.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if i++; i%800 == 0 {
				sys.Crash()
			}
		}
	}()
	go func() { // peeker: no-Ctx reads racing everything else
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = reg.PeekTriple()
			_ = reg.PeekToggle(0, 1, 0)
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pid)))
			for i := 0; i < 300; i++ {
				var plan nvm.CrashPlan
				if rng.Intn(5) == 0 {
					plan = nvm.CrashAtStep(uint64(1 + rng.Intn(12)))
				}
				if rng.Intn(2) == 0 {
					reg.Write(pid, pid*1000+i, plan)
				} else {
					reg.Read(pid, plan)
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
}

// TestAtBesideNewRegister is aimed at the race detector: two readers find
// registers by number while the owner hands out 600 — seven doubling chunks,
// eight full ones, the directory born and doubled three times. A number At
// accepts names the register NewRegister returned for it, holding its
// initial value; numbers name distinct registers, and one not handed out
// yet panics.
func TestAtBesideNewRegister(t *testing.T) {
	const regs = 600
	ps := NewProcs(runtime.NewSystem(2))
	made := make([]Register, regs)
	var handed atomic.Int32 // made[:handed] is filled
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := false; !done; {
				upto := int(handed.Load())
				done = upto == regs
				for n := 0; n < upto; n++ {
					if reg := ps.At(n); reg != made[n] || reg.PeekTriple().Val != n {
						t.Errorf("At(%d) = %+v holding %d, NewRegister returned %+v", n, reg, reg.PeekTriple().Val, made[n])
						return
					}
				}
			}
		}()
	}
	for n := range made {
		made[n] = ps.NewRegister(n)
		handed.Add(1)
	}
	wg.Wait()

	distinct := make(map[Register]int, regs)
	for n := range made {
		if m, dup := distinct[ps.At(n)]; dup {
			t.Fatalf("registers %d and %d are one", m, n)
		}
		distinct[ps.At(n)] = n
	}
	for _, n := range []int{regs, regs + 1, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) of %d registers did not panic", n, regs)
				}
			}()
			ps.At(n)
		}()
	}
}
