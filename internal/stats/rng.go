// Package stats provides the deterministic random-variate generators used
// to synthesize the SDSC Paragon workload and the descriptive statistics
// used by the experiment harness (means, coefficients of variation,
// Pearson correlation, histogram binning).
package stats

import (
	"fmt"
	"math/rand"
)

// countingSource wraps a rand.Source and counts Int63 draws. It
// deliberately does NOT implement rand.Source64: math/rand's Rand
// routes every method through Source.Int63 when the source lacks
// Source64 (only Rand.Uint64 differs, and RNG never exposes it), so
// interposing the counter leaves every variate bit-identical while the
// draw count becomes an exact stream position for checkpoint/restore.
type countingSource struct {
	src rand.Source
	n   uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// RNG is a deterministic pseudo-random source. All simulator randomness
// flows through RNG so that a (seed, config) pair fully determines a run.
type RNG struct {
	cnt countingSource
	r   *rand.Rand // over cnt
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{cnt: countingSource{src: rand.NewSource(seed)}}
	g.r = rand.New(&g.cnt)
	return g
}

// Pos returns the stream position: the number of raw 63-bit draws
// consumed so far. (seed, Pos) fully determines the generator's future
// output, so snapshots store the pair instead of math/rand's opaque
// internal state.
func (g *RNG) Pos() uint64 { return g.cnt.n }

// SkipTo advances the generator to stream position pos. It errors if
// the generator is already past pos — a restore-time sanity check.
func (g *RNG) SkipTo(pos uint64) error {
	if g.cnt.n > pos {
		return fmt.Errorf("stats: RNG at position %d cannot rewind to %d", g.cnt.n, pos)
	}
	for g.cnt.n < pos {
		g.cnt.Int63()
	}
	return nil
}

// Float64 returns a uniform variate in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform variate in [0,n). It panics if n <= 0.
//
// It is math/rand's Rand.Intn, drawing from the source directly rather
// than through Rand and the counting wrapper: the random message
// pattern calls it twice per message. The values and the number of
// draws are Rand.Intn's exactly (TestIntnMatchesMathRand). Only an n
// past 31 bits, which no simulated machine reaches, still goes
// through Rand.
func (g *RNG) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n > 1<<31-1 {
		return int(g.r.Int63n(int64(n)))
	}
	// Rand.Int31n: mask a power of two, else reject the top partial
	// block and reduce.
	m := int32(n)
	if m&(m-1) == 0 {
		return int(g.int31() & (m - 1))
	}
	limit := int32((1 << 31) - 1 - (1<<31)%uint32(m))
	v := g.int31()
	for v > limit {
		v = g.int31()
	}
	return int(v % m)
}

// int31 is Rand.Int31: the top 31 bits of one counted draw.
func (g *RNG) int31() int32 {
	g.cnt.n++
	return int32(g.cnt.src.Int63() >> 32)
}

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an exponential variate with mean 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// splitmix64 constants (Vigna): the golden-ratio increment and the two
// finalizer multipliers. Mix64 and Splitmix64 share them so a derived
// stream seed and the stream's own state walk use the same mixer.
const (
	smixGamma = 0x9e3779b97f4a7c15
	smixMul1  = 0xbf58476d1ce4e5b9
	smixMul2  = 0x94d049bb133111eb
)

// smix64 applies the splitmix64 finalizer to z.
func smix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * smixMul1
	z = (z ^ (z >> 27)) * smixMul2
	return z ^ (z >> 31)
}

// Mix64 derives the seed of stream number `stream` from a base seed:
// one splitmix64 step at offset stream. Streams are well separated for
// any stream index, so per-node or per-replication generators can be
// minted independently of iteration order — the property the parallel
// fabric and the fault injector both rely on for bit-reproducibility
// at any worker count.
func Mix64(base int64, stream int) int64 {
	return int64(smix64(uint64(base) + uint64(stream)*smixGamma))
}

// Splitmix64 is a tiny counter-based generator: 8 bytes of state, one
// multiply-xorshift per variate, no allocation. It backs the fault
// injector's per-node failure clocks, where thousands of independent
// streams must be cheap to mint and advance lazily.
type Splitmix64 struct {
	state uint64
}

// NewSplitmix64 returns a generator seeded with seed.
func NewSplitmix64(seed int64) *Splitmix64 { return &Splitmix64{state: uint64(seed)} }

// State returns the raw counter state; SetState restores it. The pair
// makes a Splitmix64 snapshot exactly 8 bytes.
func (g *Splitmix64) State() uint64 { return g.state }

// SetState restores a state previously returned by State.
func (g *Splitmix64) SetState(s uint64) { g.state = s }

// Next returns the next raw 64-bit value.
func (g *Splitmix64) Next() uint64 {
	g.state += smixGamma
	return smix64(g.state)
}

// Float64 returns a uniform variate in [0,1) with 53 random bits.
func (g *Splitmix64) Float64() float64 {
	return float64(g.Next()>>11) / (1 << 53)
}
