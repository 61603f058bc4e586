package counter

import (
	"math/rand"
	"sync"
	"testing"

	"detectable/internal/nvm"
	"detectable/internal/runtime"
)

func TestIncSequential(t *testing.T) {
	sys := runtime.NewSystem(1)
	c := New(sys)
	for i := 1; i <= 10; i++ {
		if got := c.Inc(0); got != i {
			t.Fatalf("Inc #%d = %d", i, got)
		}
	}
	if got := c.Value(0); got != 10 {
		t.Fatalf("Value = %d", got)
	}
}

// TestIncExactlyOnceUnderCrashes injects crashes at every possible step of
// the underlying CAS; increments must never be lost or doubled.
func TestIncExactlyOnceUnderCrashes(t *testing.T) {
	sys := runtime.NewSystem(1)
	c := New(sys)
	total := 0
	for step := uint64(1); step <= 8; step++ {
		c.Inc(0, nvm.CrashAtStep(step))
		total++
		if got := c.cas.PeekPair().Val; got != total {
			t.Fatalf("after crash-at-step-%d inc: value = %d, want %d", step, got, total)
		}
	}
}

func TestIncRandomCrashStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sys := runtime.NewSystem(1)
	c := New(sys)
	const incs = 60
	for i := 0; i < incs; i++ {
		var plans []nvm.CrashPlan
		for rng.Intn(2) == 0 { // geometric number of planned crashes
			plans = append(plans, nvm.CrashAtStep(uint64(1+rng.Intn(8))))
		}
		c.Inc(0, plans...)
	}
	if got := c.cas.PeekPair().Val; got != incs {
		t.Fatalf("value = %d, want %d", got, incs)
	}
}

func TestIncConcurrent(t *testing.T) {
	const (
		procs = 4
		each  = 25
	)
	sys := runtime.NewSystem(procs)
	c := New(sys)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc(pid)
			}
		}(p)
	}
	wg.Wait()
	if got := c.cas.PeekPair().Val; got != procs*each {
		t.Fatalf("value = %d, want %d", got, procs*each)
	}
}

func TestIncConcurrentWithStorm(t *testing.T) {
	const (
		procs = 3
		each  = 10
	)
	sys := runtime.NewSystem(procs)
	c := New(sys)
	stop := make(chan struct{})
	var storm sync.WaitGroup
	storm.Add(1)
	go func() {
		defer storm.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			if i%1200 == 0 {
				sys.Crash()
			}
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc(pid)
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	storm.Wait()
	if got := c.cas.PeekPair().Val; got != procs*each {
		t.Fatalf("value = %d, want %d (exactly-once violated under storm)", got, procs*each)
	}
}

func TestFetchAddReturnsPrevious(t *testing.T) {
	sys := runtime.NewSystem(1)
	f := NewFetchAdd(sys)
	if got := f.Add(0, 5); got != 0 {
		t.Fatalf("first Add = %d, want 0", got)
	}
	if got := f.Add(0, 3); got != 5 {
		t.Fatalf("second Add = %d, want 5", got)
	}
	if got := f.cas.PeekPair().Val; got != 8 {
		t.Fatalf("value = %d, want 8", got)
	}
}

func TestFetchAddExactlyOnceUnderCrashes(t *testing.T) {
	sys := runtime.NewSystem(1)
	f := NewFetchAdd(sys)
	want := 0
	for step := uint64(1); step <= 8; step++ {
		f.Add(0, 2, nvm.CrashAtStep(step))
		want += 2
		if got := f.cas.PeekPair().Val; got != want {
			t.Fatalf("step %d: value = %d, want %d", step, got, want)
		}
	}
}

func TestFetchAddConcurrent(t *testing.T) {
	const (
		procs = 4
		each  = 20
	)
	sys := runtime.NewSystem(procs)
	f := NewFetchAdd(sys)
	var wg sync.WaitGroup
	seen := make([][]int, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seen[pid] = append(seen[pid], f.Add(pid, 1))
			}
		}(p)
	}
	wg.Wait()
	if got := f.cas.PeekPair().Val; got != procs*each {
		t.Fatalf("value = %d, want %d", got, procs*each)
	}
	// Fetch-and-add(1) return values must be all distinct.
	dup := map[int]bool{}
	for _, s := range seen {
		for _, v := range s {
			if dup[v] {
				t.Fatalf("duplicate FAA return value %d", v)
			}
			dup[v] = true
		}
	}
}
