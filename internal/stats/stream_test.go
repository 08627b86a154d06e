package stats

import (
	"math"
	"sort"
	"testing"
)

func TestWelfordMatchesExact(t *testing.T) {
	rng := NewRNG(7)
	xs := make([]float64, 0, 10000)
	var w Welford
	for i := 0; i < 10000; i++ {
		x := rng.NormFloat64()*3 + 17
		xs = append(xs, x)
		w.Add(x)
	}
	if w.n != len(xs) {
		t.Fatalf("N = %d, want %d", w.n, len(xs))
	}
	if rel := math.Abs(w.Mean()-Mean(xs)) / math.Abs(Mean(xs)); rel > 1e-12 {
		t.Fatalf("Welford mean %g vs exact %g (rel %g)", w.Mean(), Mean(xs), rel)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.n != 0 {
		t.Fatal("zero value not zero")
	}
	w.Add(42)
	if w.Mean() != 42 {
		t.Fatalf("single observation: mean %g", w.Mean())
	}
}

// TestP2QuantileKnownDistributions checks the P² estimate against the
// exact sample quantile on streams drawn from distributions with very
// different shapes: uniform, exponential (heavy right tail), normal,
// and a heavy-tailed lognormal like the SDSC runtimes.
func TestP2QuantileKnownDistributions(t *testing.T) {
	const n = 50000
	dists := []struct {
		name   string
		sample func(*RNG) float64
	}{
		{"uniform", func(r *RNG) float64 { return r.Float64() }},
		{"exponential", func(r *RNG) float64 { return r.ExpFloat64() * 100 }},
		{"normal", func(r *RNG) float64 { return r.NormFloat64()*5 + 50 }},
		{"lognormal", func(r *RNG) float64 { return math.Exp(r.NormFloat64()*1.13 + 8) }},
	}
	for _, d := range dists {
		for _, p := range []float64{0.5, 0.9, 0.99} {
			rng := NewRNG(11)
			est := NewP2Quantile(p)
			xs := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				x := d.sample(rng)
				xs = append(xs, x)
				est.Add(x)
			}
			exact := Percentile(xs, p*100)
			got := est.Value()
			// P² converges to a few percent on smooth distributions at
			// this stream length; the tail quantiles of the lognormal
			// are the hardest case.
			if rel := math.Abs(got-exact) / exact; rel > 0.05 {
				t.Errorf("%s p=%g: P² %g vs exact %g (rel %g)", d.name, p, got, exact, rel)
			}
		}
	}
}

// TestP2QuantileShortStreamsExact pins the exact-order-statistic
// behaviour for five or fewer observations.
func TestP2QuantileShortStreamsExact(t *testing.T) {
	est := NewP2Quantile(0.5)
	if est.Value() != 0 {
		t.Fatal("empty estimator should report 0")
	}
	obs := []float64{9, 1, 5, 3, 7}
	for i, x := range obs {
		est.Add(x)
		s := append([]float64(nil), obs[:i+1]...)
		sort.Float64s(s)
		if got, want := est.Value(), Percentile(s, 50); got != want {
			t.Fatalf("after %d obs: Value %g, want exact %g", i+1, got, want)
		}
	}
	if est.n != 5 {
		t.Fatalf("N = %d", est.n)
	}
}

// TestP2QuantileMonotoneMarkers feeds a sorted stream; the estimate
// must stay within the observed range and close to the true quantile.
func TestP2QuantileMonotoneMarkers(t *testing.T) {
	est := NewP2Quantile(0.5)
	const n = 1001
	for i := 0; i < n; i++ {
		est.Add(float64(i))
	}
	if v := est.Value(); v < 0 || v > n-1 {
		t.Fatalf("estimate %g outside observed range", v)
	}
	if v := est.Value(); math.Abs(v-500) > 25 {
		t.Fatalf("median of 0..1000 estimated at %g", v)
	}
}

func TestP2QuantileRejectsBadP(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%g should panic", p)
				}
			}()
			NewP2Quantile(p)
		}()
	}
}
