package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation (standard deviation over mean) of
// xs, or 0 when the mean is 0.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// nearest-rank interpolation. It returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when the inputs are shorter than two points or either series
// is constant. It panics on length mismatch.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson needs equal-length series")
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Bin is one histogram bucket: the half-open interval [Lo, Hi) and the
// mean of the y values whose x fell in it.
type Bin struct {
	Lo, Hi float64
	Count  int
	MeanY  float64
}

// BinXY buckets the (x, y) points into n equal-width bins over the x range
// and reports the mean y per bin, the standard scatter-plot summary used
// for the paper's Figures 9 and 10. Empty input or n <= 0 yields nil.
func BinXY(xs, ys []float64, n int) []Bin {
	if len(xs) == 0 || len(xs) != len(ys) || n <= 0 {
		return nil
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	width := (hi - lo) / float64(n)
	bins := make([]Bin, n)
	sums := make([]float64, n)
	for i := range bins {
		bins[i].Lo = lo + float64(i)*width
		bins[i].Hi = bins[i].Lo + width
	}
	for i, x := range xs {
		b := int((x - lo) / width)
		if b >= n {
			b = n - 1
		}
		bins[b].Count++
		sums[b] += ys[i]
	}
	for i := range bins {
		if bins[i].Count > 0 {
			bins[i].MeanY = sums[i] / float64(bins[i].Count)
		}
	}
	return bins
}
