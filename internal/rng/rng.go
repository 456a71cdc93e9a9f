// Package rng provides small, fast, deterministic pseudo-random number
// generators for the simulator.
//
// Everything in this repository that needs randomness draws from an explicit
// *rng.RNG so that a single seed reproduces an entire run: the synthetic
// graphs, the graph samples, the model initialisation, and therefore the
// virtual timings. The generator is xoshiro256**, seeded via splitmix64 as
// recommended by its authors.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; derive per-worker streams with Split.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	res := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return res
}

// Split derives an independent child stream. The child is seeded from the
// parent's output, so distinct calls yield distinct streams and the parent
// advances (making the derivation order-sensitive but reproducible).
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
//
// A draw v is rejected only when the low word of v*n falls below 2^64 mod n,
// which is itself below n — so the modulus (a 64-bit divide) is computed
// lazily, on the rare draw whose low word is below n, and every other draw
// costs one widening multiply. Accepted values and generator state are the
// ones an eagerly computed threshold gives.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Powers of two take the low bits, not the product's high word.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		for threshold := -n % n; lo < threshold; {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// NormFloat64 returns a standard normal variate (Box-Muller, polar form).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher-Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Exp returns an exponential variate with rate lambda.
func (r *RNG) Exp(lambda float64) float64 {
	return -math.Log(1-r.Float64()) / lambda
}

// Mix hashes a sequence of values into a single 64-bit seed (splitmix64
// finalizer chain). It derives per-(batch, layer, node) sampling seeds so a
// node's neighbour draw is the same no matter which GPU executes it — the
// property that makes distributed CSP results identical to a single-address-
// space reference sampler.
func Mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
