// Package stats provides the small measurement substrate used by the
// simulators: exact integer moments (Moments), geometric event-gap
// sampling (RNG.EventGap) and a fast deterministic random number generator
// (splitmix64 seeding an xoshiro256**-style core, with positional
// per-terminal sub-streams) so simulation results are reproducible across
// runs and platforms.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** with splitmix64 seeding). It is not cryptographically
// secure; it exists so simulations are reproducible bit-for-bit for a
// given seed, independent of math/rand version changes.
type RNG struct {
	s [4]uint64
}

// splitmixGamma is the Weyl-sequence increment of splitmix64.
const splitmixGamma = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 output function: a bijective avalanche mixer
// turning a sequential counter into well-distributed 64-bit values.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed via splitmix64, guaranteeing
// a well-mixed non-zero state for any seed including 0.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += splitmixGamma
		r.s[i] = mix64(sm)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// step is one xoshiro256** step on a state held in four values: it
// returns the output word and the advanced state. It is the generator's
// only copy of the algorithm and is small enough to inline, so a loop
// that keeps the state in locals (EventGap) draws without touching
// memory.
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, rotl(s3, 45)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() (out uint64) {
	out, r.s[0], r.s[1], r.s[2], r.s[3] = step(r.s[0], r.s[1], r.s[2], r.s[3])
	return out
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be overkill;
	// rejecting the lowest (2^64 mod n) values of a full 64-bit draw
	// leaves a multiple of n outcomes, so v % n is unbiased.
	bound := uint64(n)
	threshold := (math.MaxUint64 - bound + 1) % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// BernoulliThreshold precomputes the integer threshold T for which
// BernoulliT(T) draws exactly like Bernoulli(p): both consume one Uint64
// and agree on every draw. The equivalence is exact, not approximate:
// Float64 is float64(u>>11) / 2^53 with u>>11 < 2^53, and both the int-to-
// float conversion and the division by a power of two are lossless, so
// Float64() < p holds iff u>>11 < p·2^53 in real arithmetic. p·2^53 is
// itself exact (a float64 scaled by a power of two), so comparing against
// its ceiling as an integer reproduces the strict inequality bit for bit.
func BernoulliThreshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// BernoulliT draws a Bernoulli outcome against a threshold precomputed by
// BernoulliThreshold. Hot loops hoist the threshold out of the per-draw
// path, replacing Bernoulli's float conversion and comparison with one
// integer compare while consuming the identical stream position.
func (r *RNG) BernoulliT(t uint64) bool {
	return r.Uint64()>>11 < t
}

// Split derives an independent generator, for giving each simulated
// terminal its own stream. The derived stream depends on how many times
// the parent has been consumed, so Split is order-dependent; use SubStream
// when streams must be addressable by a stable index.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// SubStream returns stream id of the deterministic generator family rooted
// at seed. The family partitions a single splitmix64 sequence (rooted at
// mix64(seed)) into disjoint four-word blocks: stream id's xoshiro state is
// words 4·id+1 … 4·id+4 of that sequence, so streams never overlap and
// SubStream(seed, id) depends only on the pair (seed, id) — never on the
// order or number of other streams drawn. That positional addressing is
// what makes the sharded simulator's results invariant under re-partitioning
// terminals across shards (sim.RunSharded).
func SubStream(seed, id uint64) *RNG {
	r := new(RNG)
	r.SeedSubStream(seed, id)
	return r
}

// State exports the generator's positional state — the four xoshiro256**
// words — for checkpointing. SetState(State()) reproduces the stream
// bit-for-bit from the captured position.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState reinstates a positional state captured by State.
func (r *RNG) SetState(s [4]uint64) { r.s = s }

// SeedSubStream reseeds r in place to stream id of the family rooted at
// seed, bit-identical to SubStream(seed, id). Engines that keep their
// per-terminal generators in one flat slice seed the elements with this
// method instead of paying one heap allocation per terminal.
func (r *RNG) SeedSubStream(seed, id uint64) {
	sm := mix64(seed) + 4*id*splitmixGamma
	for i := range r.s {
		sm += splitmixGamma
		r.s[i] = mix64(sm)
	}
}
