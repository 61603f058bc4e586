package counter

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"detectable/internal/nvm"
	"detectable/internal/runtime"
)

// TestRaceStress is a short stress run aimed at the race detector:
// concurrent Inc/Value and FetchAdd processes with random crash plans, a
// crash-storm goroutine and peekers on the no-Ctx paths, all racing.
func TestRaceStress(t *testing.T) {
	const procs = 4
	sys := runtime.NewSystem(procs)
	c := New(sys)
	f := NewFetchAdd(sys)

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
			_ = c.cas.PeekPair().Val
			_ = f.cas.PeekPair().Val
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pid)))
			for i := 0; i < 60; i++ {
				switch rng.Intn(3) {
				case 0:
					c.Inc(pid)
				case 1:
					c.Value(pid)
				default:
					f.Add(pid, 1+rng.Intn(3), randomPlan(rng))
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
}

func randomPlan(rng *rand.Rand) nvm.CrashPlan {
	if rng.Intn(5) != 0 {
		return nvm.CrashAtStep(math.MaxUint64)
	}
	return nvm.CrashAtStep(uint64(1 + rng.Intn(10)))
}
