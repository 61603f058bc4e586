package workload

import (
	"math"
	"math/rand"
	"testing"
)

// prob returns rank r's exact probability under z.
func prob(z *Zipf, r int) float64 {
	if r == 0 {
		return z.cdf[0]
	}
	return z.cdf[r] - z.cdf[r-1]
}

// TestZipfDeterministic: the rank stream is a pure function of the seed —
// two generators with the same (seed, n, theta) must agree draw for draw,
// and different seeds must diverge.
func TestZipfDeterministic(t *testing.T) {
	a := NewZipf(rand.New(rand.NewSource(42)), 128, 0.9)
	b := NewZipf(rand.New(rand.NewSource(42)), 128, 0.9)
	diverged := false
	c := NewZipf(rand.New(rand.NewSource(43)), 128, 0.9)
	for i := 0; i < 1000; i++ {
		ra, rb, rc := a.Next(), b.Next(), c.Next()
		if ra != rb {
			t.Fatalf("draw %d: same seed gave %d vs %d", i, ra, rb)
		}
		if ra != rc {
			diverged = true
		}
	}
	if !diverged {
		t.Fatalf("seeds 42 and 43 produced identical 1000-draw streams")
	}
}

// TestZipfUniformAtThetaZero: theta = 0 must be the uniform distribution,
// exactly in the CDF and approximately in a sampled run.
func TestZipfUniformAtThetaZero(t *testing.T) {
	const n, draws = 16, 160000
	z := NewZipf(rand.New(rand.NewSource(1)), n, 0)
	for r := 0; r < n; r++ {
		if got, want := prob(z, r), 1.0/n; math.Abs(got-want) > 1e-12 {
			t.Fatalf("P(%d) = %g, want %g", r, got, want)
		}
	}
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	for r, c := range counts {
		if ratio := float64(c) / (draws / n); ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("rank %d drawn %d times (ratio %.2f), want ~uniform", r, c, ratio)
		}
	}
}

// TestZipfRankFrequency is the empirical skew sanity pin at theta = 0.9:
// frequencies decrease with rank, the hot/second ratio matches 2^0.9, and
// the sampled frequencies track the exact distribution.
func TestZipfRankFrequency(t *testing.T) {
	const n, draws = 100, 400000
	z := NewZipf(rand.New(rand.NewSource(7)), n, 0.9)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	for _, pair := range [][2]int{{0, 1}, {1, 3}, {3, 9}, {9, 49}} {
		if counts[pair[0]] <= counts[pair[1]] {
			t.Fatalf("rank %d (%d draws) not hotter than rank %d (%d draws)",
				pair[0], counts[pair[0]], pair[1], counts[pair[1]])
		}
	}
	// P(0)/P(1) = 2^0.9 ≈ 1.866; a 400k sample pins it loosely.
	if ratio := float64(counts[0]) / float64(counts[1]); ratio < 1.6 || ratio > 2.2 {
		t.Fatalf("hot/second ratio %.2f, want ≈ 2^0.9 ≈ 1.87", ratio)
	}
	for r := 0; r < 10; r++ {
		emp := float64(counts[r]) / draws
		if math.Abs(emp-prob(z, r)) > 0.01 {
			t.Fatalf("rank %d: empirical %.4f vs exact %.4f", r, emp, prob(z, r))
		}
	}
}

// TestZipfHeavySkew: at theta = 1.2 (past math/rand.Zipf's s > 1 floor is
// the point — we cross theta = 1) the top handful of ranks must hold most
// of the mass.
func TestZipfHeavySkew(t *testing.T) {
	const n, draws = 1024, 200000
	z := NewZipf(rand.New(rand.NewSource(5)), n, 1.2)
	top8 := 0.0
	for r := 0; r < 8; r++ {
		top8 += prob(z, r)
	}
	if top8 < 0.5 {
		t.Fatalf("exact top-8 mass %.3f at theta=1.2, want > 0.5", top8)
	}
	hot := 0
	for i := 0; i < draws; i++ {
		if z.Next() < 8 {
			hot++
		}
	}
	if emp := float64(hot) / draws; math.Abs(emp-top8) > 0.02 {
		t.Fatalf("empirical top-8 mass %.3f vs exact %.3f", emp, top8)
	}
}

// TestWorkerSeedIndependence pins the satellite fix: the old
// base + pid*1001 scheme gave two runs of different -procs identical
// worker streams; WorkerSeed must give every (base, workers, worker)
// triple a distinct seed while staying replayable.
func TestWorkerSeedIndependence(t *testing.T) {
	if WorkerSeed(1, 4, 2) != WorkerSeed(1, 4, 2) {
		t.Fatalf("WorkerSeed is not deterministic")
	}
	seen := make(map[int64][3]int)
	for _, base := range []int64{0, 1, 42, -7} {
		for _, workers := range []int{1, 2, 4, 8, 64} {
			for w := 0; w < workers; w++ {
				s := WorkerSeed(base, workers, w)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: (base=%d workers=%d w=%d) and %v both map to %d",
						base, workers, w, prev, s)
				}
				seen[s] = [3]int{int(base), workers, w}
			}
		}
	}
	// The specific collision class of the old scheme: worker w of a
	// -procs=4 run vs the same worker of a -procs=8 run, same seed base.
	if WorkerSeed(1, 4, 1) == WorkerSeed(1, 8, 1) {
		t.Fatalf("worker 1 shares a stream across different worker counts")
	}
}

// TestZipfNextAllocFree: the hot path of every loadgen worker must not
// allocate.
func TestZipfNextAllocFree(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(3)), 4096, 0.9)
	if allocs := testing.AllocsPerRun(1000, func() { z.Next() }); allocs != 0 {
		t.Fatalf("Next allocates %v/op, want 0", allocs)
	}
}
