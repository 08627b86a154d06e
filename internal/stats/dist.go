package stats

import (
	"fmt"
	"math"
	"sort"
)

// HyperExp2 is a two-phase hyperexponential distribution: with probability
// P1 the variate is exponential with mean M1, otherwise exponential with
// mean M2. Hyperexponentials model the CV > 1 interarrival and runtime
// processes reported for the SDSC Paragon trace.
type HyperExp2 struct {
	P1     float64
	M1, M2 float64
}

// NewHyperExp2 fits a balanced-means two-phase hyperexponential to a target
// mean and coefficient of variation using the standard moment-matching fit.
// It panics if cv < 1, for which a hyperexponential cannot be fit.
func NewHyperExp2(mean, cv float64) HyperExp2 {
	if cv < 1 {
		panic(fmt.Sprintf("stats: hyperexponential requires cv >= 1, got %g", cv))
	}
	c2 := cv * cv
	p1 := 0.5 * (1 + math.Sqrt((c2-1)/(c2+1)))
	// Balanced means: p1*m1 == p2*m2 == mean/2.
	return HyperExp2{P1: p1, M1: mean / (2 * p1), M2: mean / (2 * (1 - p1))}
}

// Sample draws one variate using g.
func (d HyperExp2) Sample(g *RNG) float64 {
	if g.Float64() < d.P1 {
		return g.ExpFloat64() * d.M1
	}
	return g.ExpFloat64() * d.M2
}

// Lognormal is a lognormal distribution parameterized by the mean and
// standard deviation of the underlying normal.
type Lognormal struct {
	Mu, Sigma float64
}

// NewLognormal fits a lognormal to a target mean and coefficient of
// variation.
func NewLognormal(mean, cv float64) Lognormal {
	s2 := math.Log(1 + cv*cv)
	return Lognormal{Mu: math.Log(mean) - s2/2, Sigma: math.Sqrt(s2)}
}

// Sample draws one variate using g.
func (d Lognormal) Sample(g *RNG) float64 {
	return math.Exp(d.Mu + d.Sigma*g.NormFloat64())
}

// DiscreteDist is a finite distribution over integer values, used for job
// sizes. Weights need not be normalized.
type DiscreteDist struct {
	values []int
	cum    []float64 // cumulative normalized weights
}

// NewDiscreteDist builds a discrete distribution over values with the
// given weights. It panics on mismatched lengths, empty input, or
// non-positive total weight: size distributions are static configuration.
func NewDiscreteDist(values []int, weights []float64) *DiscreteDist {
	if len(values) == 0 || len(values) != len(weights) {
		panic("stats: discrete distribution needs equal, non-empty values and weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("stats: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("stats: total weight must be positive")
	}
	d := &DiscreteDist{
		values: append([]int(nil), values...),
		cum:    make([]float64, len(values)),
	}
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		d.cum[i] = acc
	}
	d.cum[len(d.cum)-1] = 1 // guard against rounding
	return d
}

// SampleInt draws one integer variate.
func (d *DiscreteDist) SampleInt(g *RNG) int {
	u := g.Float64()
	i := sort.SearchFloat64s(d.cum, u)
	if i >= len(d.values) {
		i = len(d.values) - 1
	}
	return d.values[i]
}
