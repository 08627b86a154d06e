package stats

import (
	"fmt"
	"sort"

	"meshalloc/internal/snap"
)

// Streaming (single-pass, O(1)-memory) aggregates for open-system
// simulation: a Welford running-mean accumulator and the P² quantile
// estimator, so million-job engine runs need not retain per-job records
// to report their summary statistics.

// Welford accumulates a mean online with Welford's update, numerically
// stable over arbitrarily long streams. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// Mean returns the running mean, or 0 before any observation.
func (w *Welford) Mean() float64 { return w.mean }

// P2Quantile estimates one quantile of a stream in O(1) memory with the
// P² algorithm of Jain and Chlamtac (CACM 1985): five markers straddle
// the target quantile and are nudged toward their desired rank
// positions by piecewise-parabolic interpolation as observations
// arrive. The first five observations are held exactly, so short
// streams report exact order statistics.
type P2Quantile struct {
	p    float64
	n    int
	q    [5]float64 // marker heights
	pos  [5]float64 // actual marker positions (1-based ranks)
	des  [5]float64 // desired marker positions
	inc  [5]float64 // per-observation desired-position increments
	boot []float64  // first five observations, pre-initialization
}

// NewP2Quantile returns an estimator for the p-quantile, 0 < p < 1
// (0.5 = median). It panics on an out-of-range p.
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic("stats: P2Quantile needs 0 < p < 1")
	}
	return &P2Quantile{
		p:   p,
		inc: [5]float64{0, p / 2, p, (1 + p) / 2, 1},
	}
}

// AppendState appends the estimator's state to w: the quantile, the
// observation count, the five markers' heights, positions, desired
// positions and increments, and the bootstrap buffer that holds the
// first five observations exactly.
func (e *P2Quantile) AppendState(w *snap.Writer) {
	w.F64(e.p)
	w.Int(e.n)
	for i := 0; i < 5; i++ {
		w.F64(e.q[i])
		w.F64(e.pos[i])
		w.F64(e.des[i])
		w.F64(e.inc[i])
	}
	w.Int(len(e.boot))
	for _, v := range e.boot {
		w.F64(v)
	}
}

// ReadState reads a state AppendState wrote. It rejects a bootstrap
// buffer that does not hold the first min(count, 5) observations.
func (e *P2Quantile) ReadState(r *snap.Reader) error {
	e.p, e.n = r.F64(), r.Int()
	for i := 0; i < 5; i++ {
		e.q[i], e.pos[i], e.des[i], e.inc[i] = r.F64(), r.F64(), r.F64(), r.F64()
	}
	nb := r.Count(5)
	e.boot = e.boot[:0]
	for i := 0; i < nb; i++ {
		e.boot = append(e.boot, r.F64())
	}
	if r.Err() == nil && (e.n < 0 || nb != min(e.n, 5)) {
		return fmt.Errorf("stats: P² state of %d observations keeps %d exactly", e.n, nb)
	}
	return r.Err()
}

// Add folds one observation into the estimator.
func (e *P2Quantile) Add(x float64) {
	e.n++
	if e.n <= 5 {
		e.boot = append(e.boot, x)
		if e.n == 5 {
			sort.Float64s(e.boot)
			for i := 0; i < 5; i++ {
				e.q[i] = e.boot[i]
				e.pos[i] = float64(i + 1)
			}
			p := e.p
			e.des = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
		}
		return
	}

	// Locate the cell k with q[k] <= x < q[k+1], extending the extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := 0; i < 5; i++ {
		e.des[i] += e.inc[i]
	}

	// Nudge the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.des[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			qn := e.parabolic(i, s)
			if !(e.q[i-1] < qn && qn < e.q[i+1]) {
				qn = e.linear(i, s)
			}
			e.q[i] = qn
			e.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i by d (±1).
func (e *P2Quantile) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+d)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-d)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback height prediction when the parabola overshoots
// a neighboring marker.
func (e *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Value returns the current quantile estimate: exact for five or fewer
// observations, the P² middle marker afterwards. It returns 0 before
// any observation.
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n <= 5 {
		s := append([]float64(nil), e.boot...)
		sort.Float64s(s)
		return Percentile(s, e.p*100)
	}
	return e.q[2]
}
