// Package stats provides the deterministic random-number generation,
// categorical sampling and summary statistics used throughout the pTest
// reproduction. Every stochastic decision in the simulator and in the
// pattern generator draws from an explicitly seeded RNG from this package,
// which is what makes a discovered bug replayable from its seed.
package stats

import (
	"errors"
	"fmt"
)

// RNG is a deterministic pseudo-random number generator based on
// splitmix64 seeding feeding an xoshiro256**-style core. It is not
// cryptographically secure; it is small, fast, and fully reproducible
// across platforms, which is what the tester needs.
//
// The zero value is NOT ready for use; construct with New. (An all-zero
// xoshiro state would be a fixed point.)
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output. It is
// used to expand a single 64-bit seed into the full generator state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns an RNG seeded from the given 64-bit seed. Two RNGs built
// from the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// Guard against the (astronomically unlikely after splitmix) all-zero
	// state, which xoshiro cannot escape.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0,
// mirroring math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly shuffles n elements using the provided swap
// function, matching the contract of math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Split derives an independent child generator from the parent stream.
// Deriving children lets subsystems (pattern generator, merger, noise
// injector) consume randomness without perturbing each other's streams,
// so adding a consumer does not change unrelated decisions.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// Geometric returns a sample from the geometric distribution with success
// probability p: the number of failures before the first success. It
// panics if p is outside (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("stats: Geometric probability %v out of (0,1]", p))
	}
	n := 0
	for !r.Bool(p) {
		n++
		if n > 1<<24 { // safety net against p underflow
			break
		}
	}
	return n
}

// ErrEmptyDistribution is returned when sampling from a categorical
// distribution with no positive-weight outcome.
var ErrEmptyDistribution = errors.New("stats: empty or zero-weight distribution")

// Categorical samples an index from the given non-negative weight vector,
// with probability proportional to weight. The weights need not sum to 1.
func (r *RNG) Categorical(weights []float64) (int, error) {
	return r.CategoricalFunc(len(weights), func(i int) float64 { return weights[i] })
}

// CategoricalFunc is Categorical over the n weights w(0), ..., w(n-1), for
// a caller that holds its weights in something other than a []float64.
// It keeps no reference to w, so a closure passed as w need not escape.
func (r *RNG) CategoricalFunc(n int, w func(int) float64) (int, error) {
	total := 0.0
	for i := 0; i < n; i++ {
		wi := w(i)
		if wi < 0 {
			return 0, fmt.Errorf("stats: negative weight %v at index %d", wi, i)
		}
		total += wi
	}
	if total <= 0 {
		return 0, ErrEmptyDistribution
	}
	x := r.Float64() * total
	acc := 0.0
	last := -1
	for i := 0; i < n; i++ {
		wi := w(i)
		if wi <= 0 {
			continue
		}
		last = i
		acc += wi
		if x < acc {
			return i, nil
		}
	}
	// Floating-point slack: fall back to the last positive-weight index.
	return last, nil
}
