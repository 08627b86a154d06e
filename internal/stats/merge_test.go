package stats

import (
	"math"
	"testing"
)

// addAll folds xs into a fresh Welford.
func addAll(xs []float64) Welford {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w
}

// relClose reports |a-b| <= tol * max(1, |a|, |b|).
func relClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

func TestWelfordMergeMatchesSingleStream(t *testing.T) {
	rng := NewRNG(42)
	for _, n := range []int{0, 1, 2, 3, 10, 1000, 10000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*3 + 100
		}
		single := addAll(xs)
		for _, shards := range []int{1, 2, 3, 7} {
			var merged Welford
			for s := 0; s < shards; s++ {
				lo, hi := s*n/shards, (s+1)*n/shards
				part := addAll(xs[lo:hi])
				merged.Merge(part)
			}
			if merged.n != single.n {
				t.Fatalf("n=%d shards=%d: N %d != %d", n, shards, merged.n, single.n)
			}
			if !relClose(merged.Mean(), single.Mean(), 1e-12) {
				t.Errorf("n=%d shards=%d: mean %g != %g", n, shards, merged.Mean(), single.Mean())
			}
		}
	}
}

// TestWelfordMergeAssociativity checks that different shard groupings
// of the same stream agree to rounding error, and that the same shard
// list merged in the same order is bit-identical (the determinism
// contract the sweep runner's by-shard-index reduction relies on).
func TestWelfordMergeAssociativity(t *testing.T) {
	rng := NewRNG(7)
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 50
	}
	a, b, c := addAll(xs[:100]), addAll(xs[100:617]), addAll(xs[617:])

	left := a // (a+b)+c
	left.Merge(b)
	left.Merge(c)
	bc := b // a+(b+c)
	bc.Merge(c)
	right := a
	right.Merge(bc)
	if !relClose(left.Mean(), right.Mean(), 1e-12) {
		t.Errorf("grouping changed result: mean %g vs %g", left.Mean(), right.Mean())
	}

	again := a
	again.Merge(b)
	again.Merge(c)
	if again != left {
		t.Error("same shard order must be bit-identical")
	}
}

func TestWelfordMergeIdentity(t *testing.T) {
	var zero Welford
	w := addAll([]float64{1, 2, 3})
	want := w
	w.Merge(zero)
	if w != want {
		t.Error("merging an empty accumulator must be a bit-level no-op")
	}
	zero.Merge(want)
	if zero != want {
		t.Error("merging into an empty accumulator must copy bit-exactly")
	}
}

func TestMergeQuantileSingleShard(t *testing.T) {
	rng := NewRNG(3)
	e := NewP2Quantile(0.5)
	for i := 0; i < 500; i++ {
		e.Add(rng.Float64())
	}
	if got, want := MergeQuantile(0.5, []*P2Quantile{e}), e.Value(); got != want {
		t.Fatalf("single shard must be exact: %g != %g", got, want)
	}
	if got := MergeQuantile(0.5, []*P2Quantile{nil, e, NewP2Quantile(0.5)}); got != e.Value() {
		t.Fatalf("nil/empty shards must be ignored: %g != %g", got, e.Value())
	}
	if got := MergeQuantile(0.5, nil); got != 0 {
		t.Fatalf("no shards: got %g, want 0", got)
	}
}

func TestMergeQuantileKnownDistributions(t *testing.T) {
	cases := []struct {
		name string
		gen  func(*RNG) float64
		p    float64
		want float64
	}{
		{"uniform-median", func(r *RNG) float64 { return r.Float64() }, 0.5, 0.5},
		{"uniform-p90", func(r *RNG) float64 { return r.Float64() }, 0.9, 0.9},
		{"exp-median", func(r *RNG) float64 { return r.ExpFloat64() }, 0.5, math.Ln2},
		{"normal-median", func(r *RNG) float64 { return r.NormFloat64()*2 + 10 }, 0.5, 10},
	}
	const n, shards = 20000, 4
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := NewRNG(11)
			parts := make([]*P2Quantile, shards)
			for i := range parts {
				parts[i] = NewP2Quantile(tc.p)
			}
			single := NewP2Quantile(tc.p)
			for i := 0; i < n; i++ {
				x := tc.gen(rng)
				parts[i%shards].Add(x)
				single.Add(x)
			}
			got := MergeQuantile(tc.p, parts)
			if !relClose(got, tc.want, 0.05) {
				t.Errorf("merged %s = %g, want ~%g", tc.name, got, tc.want)
			}
			if !relClose(got, single.Value(), 0.05) {
				t.Errorf("merged %g strays from single-stream P² %g", got, single.Value())
			}
			// Determinism: the same shard list merges to the same bits.
			if again := MergeQuantile(tc.p, parts); again != got {
				t.Error("merge is not bit-stable for a fixed shard list")
			}
		})
	}
}

// TestMergeQuantileShortShards exercises shards still in the exact boot
// phase (n <= 5), where the merge interpolates the raw order statistics.
func TestMergeQuantileShortShards(t *testing.T) {
	a, b := NewP2Quantile(0.5), NewP2Quantile(0.5)
	for _, x := range []float64{1, 2, 3} {
		a.Add(x)
	}
	for _, x := range []float64{4, 5, 6} {
		b.Add(x)
	}
	got := MergeQuantile(0.5, []*P2Quantile{a, b})
	if got < 3 || got > 4 {
		t.Fatalf("median of 1..6 estimated at %g, want within [3, 4]", got)
	}
	c := NewP2Quantile(0.5)
	c.Add(42)
	if got := MergeQuantile(0.5, []*P2Quantile{c, NewP2Quantile(0.5)}); got != 42 {
		t.Fatalf("single observation: %g, want 42", got)
	}
}

// FuzzWelfordMerge checks, for arbitrary observation streams and split
// points, that merging the two halves matches the single-stream
// accumulator within rounding tolerance and preserves the count
// exactly.
func FuzzWelfordMerge(f *testing.F) {
	f.Add(int64(1), uint16(10), uint16(3))
	f.Add(int64(99), uint16(1000), uint16(999))
	f.Add(int64(-5), uint16(2), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, count, split uint16) {
		n := int(count % 2048)
		cut := 0
		if n > 0 {
			cut = int(split) % (n + 1)
		}
		rng := NewRNG(seed)
		xs := make([]float64, n)
		for i := range xs {
			// Mixed magnitudes stress the numerics without overflowing.
			xs[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
		}
		single := addAll(xs)
		merged := addAll(xs[:cut])
		merged.Merge(addAll(xs[cut:]))
		if merged.n != single.n {
			t.Fatalf("N %d != %d", merged.n, single.n)
		}
		if !relClose(merged.Mean(), single.Mean(), 1e-9) {
			t.Errorf("mean %g != %g (n=%d cut=%d)", merged.Mean(), single.Mean(), n, cut)
		}
	})
}
