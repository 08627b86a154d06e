// Package stats provides the deterministic random-variate generators used
// to synthesize the SDSC Paragon workload and the descriptive statistics
// used by the experiment harness (means, coefficients of variation,
// Pearson correlation, histogram binning).
package stats

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"meshalloc/internal/snap"
)

// The generator behind rand.NewSource is additive lagged Fibonacci,
// x[n] = x[n-607] + x[n-273] mod 2^64, and Int63 keeps the low 63 bits.
// Carries only move upward, so the outputs obey the same recurrence
// mod 2^63: any 607 consecutive outputs determine every later one.
const (
	ringLen = 607
	ringTap = ringLen - 273 // x[n+607] = x[n] + x[n+ringTap]
	mask63  = 1<<63 - 1
)

// stateWords is the length of a drawn RNG's state: the ring's index and
// its 607 words.
const stateWords = 1 + ringLen

// RNG is a deterministic pseudo-random source. All simulator randomness
// flows through RNG so that a (seed, config) pair fully determines a run.
//
// It continues rand.NewSource(seed)'s stream exactly, holding the
// generator's state itself: ring holds the next 607 outputs, the next
// one at index i, and drawing an output overwrites it with the output
// 607 draws later. The ring is primed from rand.NewSource(seed) at the
// first draw, so a generator that never draws costs no seeding, and its
// state is its seed alone. The state is the whole of the generator, so
// a snapshot stores it and a restore copies it back in O(1). The zero
// RNG is not usable; build one with NewRNG.
type RNG struct {
	// r runs math/rand's variates over the RNG itself. It is the only
	// pointer and comes first, so the garbage collector scans one word
	// of the RNG, not the ring.
	r      *rand.Rand
	seed   int64
	primed bool
	i      int // ringLen before the first draw and after each lap
	ring   [ringLen]uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{seed: seed, i: ringLen}
	g.r = rand.New(g)
	return g
}

// Seed implements rand.Source: the generator restarts seed's stream.
func (g *RNG) Seed(seed int64) { g.seed, g.primed, g.i = seed, false, ringLen }

// Int63 implements rand.Source: the next output of the stream.
func (g *RNG) Int63() int64 {
	i := g.i
	if uint(i) >= ringLen {
		g.lap()
		i = 0
	}
	x := g.ring[i]
	j := i + ringTap
	if j >= ringLen {
		j -= ringLen
	}
	g.ring[i] = (x + g.ring[j]) & mask63
	g.i = i + 1
	return int64(x)
}

// lap starts the ring's next lap, priming it with the stream's first
// 607 outputs if nothing has been drawn yet.
func (g *RNG) lap() {
	if !g.primed {
		src := rand.NewSource(g.seed)
		for k := range g.ring {
			g.ring[k] = uint64(src.Int63())
		}
		g.primed = true
	}
	g.i = 0
}

// AppendState implements snap.Codec: g's state as a count of words,
// then the words — the seed alone while g has never drawn, else the
// ring's index and its 607 words (stateWords in all).
func (g *RNG) AppendState(w *snap.Writer) {
	if !g.primed {
		w.Int(1)
		w.I64(g.seed)
		return
	}
	p := w.Extend(8 * (1 + stateWords))
	binary.LittleEndian.PutUint64(p, stateWords)
	binary.LittleEndian.PutUint64(p[8:], uint64(g.i))
	for k, v := range g.ring {
		binary.LittleEndian.PutUint64(p[16+8*k:], v)
	}
}

// ReadState implements snap.Codec: g continues the stream whose state
// AppendState wrote, whatever g was seeded with. It rejects a state of
// any other count of words, a ring index past 607 and a word with bit
// 63 set, leaving g as it was.
func (g *RNG) ReadState(r *snap.Reader) error {
	switch n := r.Int(); {
	case r.Err() != nil:
		return r.Err()
	case n == 1:
		seed := r.I64()
		if r.Err() == nil {
			g.Seed(seed)
		}
		return r.Err()
	case n != stateWords:
		return fmt.Errorf("stats: RNG state of %d words, want 1 or %d", n, stateWords)
	}
	i := r.U64()
	var ring [ringLen]uint64
	for k := range ring {
		ring[k] = r.U64()
	}
	if r.Err() != nil {
		return r.Err()
	}
	if i > ringLen {
		return fmt.Errorf("stats: RNG ring index %d past %d", i, ringLen)
	}
	for k, v := range ring {
		if v > mask63 {
			return fmt.Errorf("stats: RNG ring word %d has bit 63 set", k)
		}
	}
	g.primed, g.i, g.ring = true, int(i), ring
	return nil
}

// Float64 returns a uniform variate in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform variate in [0,n). It panics if n <= 0.
//
// It is math/rand's Rand.Intn, drawing from the ring directly rather
// than through Rand: the random message pattern calls it twice per
// message. The values and the number of draws are Rand.Intn's exactly
// (TestIntnMatchesMathRand). Only an n past 31 bits, which no simulated
// machine reaches, still goes through Rand.
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

// int31 is Rand.Int31: the top 31 bits of one draw.
func (g *RNG) int31() int32 { return int32(g.Int63() >> 32) }

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
