// Package workload generates the key-access distributions the load
// generator (cmd/loadgen), bench/ and the root benchmarks share:
// seeded, replayable Zipfian hot-key skew plus uniform traffic as its
// theta=0 degenerate case, and splitmix-style seed derivation so every
// worker of every sweep configuration draws from an independent stream.
//
// Uniform single-key traffic — everything the repo measured before PR 8 —
// spreads load evenly over shards, so per-shard serialization points (a
// key-table lock, a history ticket, shared stats words) hide in the noise.
// Under Zipfian skew one shard absorbs most of the load and those points
// dominate; this package exists to make that regime reproducible.
package workload

import (
	"math"
	"math/rand"
)

// Zipf draws ranks in [0, n) with probability P(r) ∝ 1/(r+1)^theta: rank 0
// is the hottest key. theta = 0 is the uniform distribution; theta ≈ 0.9
// is the classic YCSB hot-key mix; theta > 1 concentrates most of the mass
// on a handful of keys. Unlike math/rand's Zipf (which requires s > 1),
// any theta ≥ 0 is accepted — benchmark sweeps cross the theta = 1
// boundary.
//
// The generator precomputes the distribution's CDF once (O(n) setup, fine
// for benchmark key spaces) and draws by binary search: one rng.Float64
// plus O(log n) comparisons per Next, no allocation, and the rank stream
// is a pure function of the rng's seed — replayable across runs and
// machines.
type Zipf struct {
	rng *rand.Rand
	cdf []float64
}

// NewZipf returns a generator over n ranks with exponent theta, drawing
// randomness from rng. It panics on n < 1 or theta < 0.
func NewZipf(rng *rand.Rand, n int, theta float64) *Zipf {
	if n < 1 {
		panic("workload: NewZipf needs n ≥ 1")
	}
	if theta < 0 {
		panic("workload: NewZipf needs theta ≥ 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), theta)
		cdf[r] = sum
	}
	inv := 1 / sum
	for r := range cdf {
		cdf[r] *= inv
	}
	cdf[n-1] = 1 // exact upper bound despite rounding
	return &Zipf{rng: rng, cdf: cdf}
}

// N returns the rank-space size.
func (z *Zipf) N() int { return len(z.cdf) }

// P returns rank r's exact probability, for tests and reporting.
func (z *Zipf) P(r int) float64 {
	if r == 0 {
		return z.cdf[0]
	}
	return z.cdf[r] - z.cdf[r-1]
}

// Next draws the next rank.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	// Binary search for the first rank whose CDF covers u (inlined
	// sort.SearchFloat64s, which would be an interface call per draw).
	lo, hi := 0, len(z.cdf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// WorkerSeed derives worker w's rng seed for a run with the given base
// seed and worker count, by splitmix64-style hashing of all three. The
// seed base, the worker count and the worker index each perturb every bit
// of the result, so (unlike additive schemes such as base + w*1001) two
// sweep configurations sharing a seed base never share a worker stream,
// while any exact (base, workers, w) triple replays identically.
func WorkerSeed(base int64, workers, w int) int64 {
	h := splitmix64(uint64(base))
	h = splitmix64(h ^ uint64(workers)*0x9e3779b97f4a7c15)
	h = splitmix64(h ^ uint64(w))
	return int64(h)
}

// splitmix64 is the finalizer of the SplitMix64 generator (Steele et al.):
// an invertible avalanche of all 64 bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
