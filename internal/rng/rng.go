// Package rng provides a fast, deterministic, splittable pseudo-random
// number generator used by every stochastic component of churnnet.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64 so that any 64-bit seed — including 0 — yields a well-mixed
// state. It is not cryptographically secure; it is built for reproducible
// simulation: the same seed always produces the same stream, and Split
// derives statistically independent child streams so that parallel trials
// of an experiment stay deterministic regardless of scheduling.
package rng

import "math/bits"

// RNG is a xoshiro256** generator. The zero value is NOT ready for use;
// construct one with New.
type RNG struct {
	s State
}

// State is a generator's state held by value. A hot loop loads it once
// with (*RNG).State, steps it in locals with Next and Below, and stores it
// back once with (*RNG).SetState: the draws are exactly the ones the
// equivalent Uint64 and Uint64n calls would make, but the state stays in
// registers instead of being loaded and stored through the pointer at
// every draw.
type State struct {
	s0, s1, s2, s3 uint64
}

// State returns the generator's current state.
func (r *RNG) State() State { return r.s }

// SetState replaces the generator's state, typically with the one a hot
// loop advanced from State.
func (r *RNG) SetState(s State) { r.s = s }

// Next returns the next 64 uniformly random bits and the advanced state:
// one xoshiro256** step.
func (s State) Next() (uint64, State) {
	result := bits.RotateLeft64(s.s1*5, 7) * 9

	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)

	return result, s
}

// New returns a generator seeded from the given 64-bit seed via splitmix64.
// Distinct seeds yield streams that are, for simulation purposes,
// independent.
func New(seed uint64) *RNG {
	var r RNG
	r.Reseed(seed)
	return &r
}

// Reseed resets the generator state from seed, as if freshly created by New.
func (r *RNG) Reseed(seed uint64) {
	sm, s0 := splitmix64(seed)
	sm, s1 := splitmix64(sm)
	sm, s2 := splitmix64(sm)
	_, s3 := splitmix64(sm)
	r.s = State{s0, s1, s2, s3}
}

// splitmix64 advances the splitmix64 state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	x, s := r.s.Next()
	r.s = s
	return x
}

// Split returns a new generator whose stream is independent from the
// receiver's for simulation purposes. The receiver is advanced once, so
// successive Split calls yield distinct children.
func (r *RNG) Split() *RNG {
	// Mixing a draw through splitmix64 decorrelates the child state from
	// the parent's trajectory.
	_, h := splitmix64(r.Uint64() ^ 0xa0761d6478bd642f)
	return New(h)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method, which is unbiased.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Lemire's method: take the high 64 bits of a 128-bit product and
	// reject the small biased region of the low bits.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n // = (2^64 - n) mod n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1): never exactly zero, so it
// is safe as the argument of a logarithm.
func (r *RNG) Float64Open() float64 {
	for {
		f := (float64(r.Uint64()>>11) + 0.5) / (1 << 53)
		if f > 0 && f < 1 {
			return f
		}
	}
}

// Bool returns a uniformly random boolean.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function, with the Fisher–Yates algorithm.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
