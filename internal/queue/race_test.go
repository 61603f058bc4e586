package queue

import (
	"math/rand"
	"sync"
	"testing"

	"detectable/internal/nvm"
	"detectable/internal/runtime"
)

// TestRaceStress is a short stress run aimed at the race detector:
// concurrent enqueuers and dequeuers with random crash plans, a crash-storm
// goroutine and a peeker walking the chain without a Ctx, all racing.
func TestRaceStress(t *testing.T) {
	const procs = 4
	sys := runtime.NewSystem(procs)
	q := New(sys)

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
	go func() { // peeker
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = len(q.PeekAll())
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pid)))
			for i := 0; i < 200; i++ {
				var plan nvm.CrashPlan
				if rng.Intn(5) == 0 {
					plan = nvm.CrashAtStep(uint64(1 + rng.Intn(14)))
				}
				if rng.Intn(2) == 0 {
					q.Enq(pid, pid*1000+i, plan)
				} else {
					q.Deq(pid, plan)
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
}
