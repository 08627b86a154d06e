package stats

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"meshalloc/internal/snap"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverge")
		}
	}
}

// hyperExp2Moments returns the analytic mean and coefficient of
// variation of d.
func hyperExp2Moments(d HyperExp2) (mean, cv float64) {
	mean = d.P1*d.M1 + (1-d.P1)*d.M2
	m2 := 2 * (d.P1*d.M1*d.M1 + (1-d.P1)*d.M2*d.M2)
	return mean, math.Sqrt(m2-mean*mean) / mean
}

// lognormalMoments returns the analytic mean and coefficient of
// variation of d.
func lognormalMoments(d Lognormal) (mean, cv float64) {
	return math.Exp(d.Mu + d.Sigma*d.Sigma/2), math.Sqrt(math.Exp(d.Sigma*d.Sigma) - 1)
}

func TestHyperExp2Fit(t *testing.T) {
	for _, tc := range []struct{ mean, cv float64 }{
		{1301, 3.7}, {100, 1.0}, {10, 2.0}, {1e6, 5.5},
	} {
		mean, cv := hyperExp2Moments(NewHyperExp2(tc.mean, tc.cv))
		if math.Abs(mean-tc.mean)/tc.mean > 1e-9 {
			t.Errorf("fit mean = %g, want %g", mean, tc.mean)
		}
		if math.Abs(cv-tc.cv)/tc.cv > 1e-9 {
			t.Errorf("fit cv = %g, want %g", cv, tc.cv)
		}
	}
}

func TestHyperExp2RejectsLowCV(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cv < 1 should panic")
		}
	}()
	NewHyperExp2(10, 0.5)
}

func TestHyperExp2Sampling(t *testing.T) {
	d := NewHyperExp2(1000, 3.0)
	mean, cv := hyperExp2Moments(d)
	assertSampleMoments(t, d.Sample, mean, cv, 0.15)
}

func TestLognormalFit(t *testing.T) {
	d := NewLognormal(10944, 1.13)
	mean, cv := lognormalMoments(d)
	if math.Abs(mean-10944)/10944 > 1e-9 {
		t.Errorf("lognormal mean = %g", mean)
	}
	if math.Abs(cv-1.13)/1.13 > 1e-9 {
		t.Errorf("lognormal cv = %g", cv)
	}
	assertSampleMoments(t, d.Sample, mean, cv, 0.1)
}

// assertSampleMoments draws 200k samples and compares empirical moments
// with the analytic mean and cv within relative tolerance tol.
func assertSampleMoments(t *testing.T, sample func(*RNG) float64, mean, cv, tol float64) {
	t.Helper()
	g := NewRNG(99)
	n := 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := sample(g)
		if x < 0 {
			t.Fatal("negative sample")
		}
		sum += x
		sum2 += x * x
	}
	m := sum / float64(n)
	sd := math.Sqrt(sum2/float64(n) - m*m)
	if math.Abs(m-mean)/mean > tol {
		t.Errorf("sample mean %g vs analytic %g", m, mean)
	}
	if math.Abs(sd/m-cv)/cv > tol+0.05 {
		t.Errorf("sample cv %g vs analytic %g", sd/m, cv)
	}
}

func TestDiscreteDistMoments(t *testing.T) {
	d := NewDiscreteDist([]int{1, 2, 4}, []float64{1, 1, 2})
	// mean = (1 + 2 + 8)/4 = 2.75; E[X^2] = (1 + 4 + 32)/4 = 9.25.
	cv := math.Sqrt(9.25-2.75*2.75) / 2.75
	assertSampleMoments(t, func(g *RNG) float64 { return float64(d.SampleInt(g)) }, 2.75, cv, 0.01)
}

func TestDiscreteDistSampling(t *testing.T) {
	d := NewDiscreteDist([]int{3, 7}, []float64{0.25, 0.75})
	g := NewRNG(1)
	counts := map[int]int{}
	for i := 0; i < 100000; i++ {
		counts[d.SampleInt(g)]++
	}
	if len(counts) != 2 {
		t.Fatalf("support hit = %v", counts)
	}
	frac := float64(counts[7]) / 100000
	if math.Abs(frac-0.75) > 0.01 {
		t.Fatalf("P(7) = %g, want 0.75", frac)
	}
}

func TestDiscreteDistPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewDiscreteDist(nil, nil) },
		func() { NewDiscreteDist([]int{1}, []float64{1, 2}) },
		func() { NewDiscreteDist([]int{1}, []float64{-1}) },
		func() { NewDiscreteDist([]int{1, 2}, []float64{0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDescriptiveBasics(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %g", got)
	}
	if got := StdDev(xs); math.Abs(got-2) > 1e-12 {
		t.Fatalf("StdDev = %g", got)
	}
	if got := CV(xs); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("CV = %g", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 || CV(nil) != 0 {
		t.Fatal("degenerate inputs should be zero")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	tests := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {12.5, 15},
	}
	for _, tc := range tests {
		if got := Percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("P%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect correlation r = %g", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation r = %g", got)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if got := Pearson(xs, flat); got != 0 {
		t.Fatalf("constant series r = %g", got)
	}
}

func TestPearsonPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

func TestPearsonBounds(t *testing.T) {
	// Property: |r| <= 1 for any non-degenerate input pair.
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		xs, ys := raw[:n], raw[n:2*n]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		r := Pearson(xs, ys)
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBinXY(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	ys := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}
	bins := BinXY(xs, ys, 5)
	if len(bins) != 5 {
		t.Fatalf("%d bins", len(bins))
	}
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 10 {
		t.Fatalf("bins cover %d points", total)
	}
	// First bin holds x in [0, 1.8): points 0 and 1, mean y 5.
	if bins[0].Count != 2 || bins[0].MeanY != 5 {
		t.Fatalf("first bin = %+v", bins[0])
	}
	if BinXY(nil, nil, 3) != nil || BinXY(xs, ys, 0) != nil {
		t.Fatal("degenerate binning should be nil")
	}
}

func TestBinXYConstantX(t *testing.T) {
	bins := BinXY([]float64{5, 5, 5}, []float64{1, 2, 3}, 4)
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 3 {
		t.Fatalf("constant-x binning lost points: %v", bins)
	}
}

// rngSeeds are the oracle tests' seeds: zero, negative, and past 2^31,
// where math/rand reduces the seed modulo 2^31-1.
var rngSeeds = []int64{0, 1, -3, 1 << 40, -1 << 62}

// variates is the method set RNG shares with rand.Rand.
type variates interface {
	Int63() int64
	Intn(n int) int
	Float64() float64
	ExpFloat64() float64
	NormFloat64() float64
	Perm(n int) []int
	Shuffle(n int, swap func(i, j int))
}

// intnBounds mixes powers of two, bounds whose 2^31 block rejects about
// half its draws, and bounds past 31 bits.
var intnBounds = []int{1, 2, 3, 7, 100, 1 << 20, 1<<20 + 1, 3<<29 + 1, 1<<31 - 1, 1<<31 + 1, 1<<40 + 3}

// callBoth makes call k of a fixed mix of every variates method on a
// and on b, with the same argument, and returns both results.
func callBoth(a, b variates, k int) (any, any) {
	call := func(g variates) any {
		switch k % 7 {
		case 0:
			return g.Int63()
		case 1:
			return g.Intn(intnBounds[k/7%len(intnBounds)])
		case 2:
			return g.Float64()
		case 3:
			return g.ExpFloat64()
		case 4:
			return g.NormFloat64()
		case 5:
			return g.Perm(k % 23)
		default:
			s := make([]int, k%29)
			for i := range s {
				s[i] = i
			}
			g.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
			return s
		}
	}
	return call(a), call(b)
}

// TestIntnMatchesMathRand is the ring's oracle, with math/rand as the
// reference. From every seed, 5M raw draws must equal rand.NewSource's.
// Then Intn, which draws from the ring directly, must return
// rand.Rand.Intn's values over many bounds, interleaved with every other
// method; a raw draw in the mix checks that both streams stayed at the
// same position.
func TestIntnMatchesMathRand(t *testing.T) {
	for _, seed := range rngSeeds {
		got, want := NewRNG(seed), rand.NewSource(seed)
		for n := 0; n < 5_000_000; n++ {
			if a, b := got.Int63(), want.Int63(); a != b {
				t.Fatalf("seed %d draw %d: %d, math/rand gives %d", seed, n, a, b)
			}
		}
	}
	ns := []int{1, 2, 3, 5, 7, 10, 100, 1000, 1<<31 - 1, 1<<31 + 1, 1<<40 + 3, 1 << 50}
	for k := 1; k <= 30; k++ {
		ns = append(ns, 1<<k)
	}
	// Just above a power of two, about half of each 2^31 block is
	// rejected, so these force redraws.
	for _, k := range []int{20, 29, 30} {
		ns = append(ns, 1<<k+1, 3<<(k-1)+1)
	}
	for _, seed := range rngSeeds {
		got, want := NewRNG(seed), rand.New(rand.NewSource(seed))
		for round := 0; round < 40; round++ {
			for _, n := range ns {
				if a, b := got.Intn(n), want.Intn(n); a != b {
					t.Fatalf("seed %d round %d: Intn(%d) = %d, math/rand gives %d", seed, round, n, a, b)
				}
			}
			for k := round * 70; k < (round+1)*70; k++ {
				if a, b := callBoth(got, want, k); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d round %d call %d: %v, math/rand gives %v", seed, round, k, a, b)
				}
			}
		}
	}
}

// rngState returns the bytes g's AppendState writes.
func rngState(g *RNG) []byte {
	w := snap.NewWriter(nil)
	g.AppendState(w)
	n := w.Len()
	b := w.Finish()
	return b[len(b)-4-n : len(b)-4]
}

// readRNG reads state, framed in a container, into g and requires it
// to be read whole.
func readRNG(g *RNG, state []byte) error {
	w := snap.NewWriter(nil)
	copy(w.Extend(len(state)), state)
	r, err := snap.NewReader(bytes.NewReader(w.Finish()))
	if err != nil {
		return err
	}
	if err := g.ReadState(r); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%d bytes of state left unread", r.Remaining())
	}
	return nil
}

// TestRNGStateRoundTrip takes an RNG's state after k draws, around the
// ring's laps and far past them, and reads it into a generator of
// another seed. The second generator must write the same state and
// then agree with the first on 10^4 calls of every method.
func TestRNGStateRoundTrip(t *testing.T) {
	for _, k := range []int{0, 1, 606, 607, 608, 100003} {
		a, b := NewRNG(11), NewRNG(-5)
		for i := 0; i < k; i++ {
			a.Int63()
		}
		state := rngState(a)
		want := 8 * (1 + stateWords) // the count, the index and the ring
		if k == 0 {
			want = 16 // the count and the seed
		}
		if len(state) != want {
			t.Fatalf("%d draws: state of %d bytes, want %d", k, len(state), want)
		}
		if err := readRNG(b, state); err != nil {
			t.Fatalf("%d draws: %v", k, err)
		}
		if got := rngState(b); !bytes.Equal(got, state) {
			t.Fatalf("%d draws: state reads back differently", k)
		}
		for c := 0; c < 10_000; c++ {
			if x, y := callBoth(a, b, c); !reflect.DeepEqual(x, y) {
				t.Fatalf("%d draws, call %d: %v after ReadState, want %v", k, c, y, x)
			}
		}
	}
}

// TestRNGSetStateRejects: a state of another count of words, a state
// cut short, a ring index past 607 or a ring word with bit 63 set is
// rejected by ReadState, and the generator carries on as if it had not
// been called.
func TestRNGSetStateRejects(t *testing.T) {
	src := NewRNG(3)
	src.Int63()
	good := rngState(src)
	count := func(b []byte, n uint64) []byte { binary.LittleEndian.PutUint64(b, n); return b }
	for _, c := range []struct {
		name string
		edit func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return count(b[:8], 0) }},
		{"short", func(b []byte) []byte { return count(b[:len(b)-8], stateWords-1) }},
		{"long", func(b []byte) []byte { return count(append(b, make([]byte, 8)...), stateWords+1) }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-8] }},
		{"index-608", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[8:], 608); return b }},
		{"bit-63", func(b []byte) []byte { b[16+8*300+7] |= 0x80; return b }},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, ref := NewRNG(9), NewRNG(9)
			g.Int63()
			ref.Int63()
			if err := readRNG(g, c.edit(bytes.Clone(good))); err == nil {
				t.Fatal("state accepted")
			}
			for i := 0; i < 1000; i++ {
				if a, b := g.Int63(), ref.Int63(); a != b {
					t.Fatalf("draw %d after the rejected state: %d, want %d", i, a, b)
				}
			}
		})
	}
}

// BenchmarkIntn times RNG.Intn at a bound below 256, as the random
// message pattern calls it twice per message.
func BenchmarkIntn(b *testing.B) {
	g := NewRNG(1)
	for b.Loop() {
		g.Intn(255)
	}
}
