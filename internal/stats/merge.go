package stats

// Merging for the streaming aggregates: when a sweep shards its
// replications (or one long stream) across workers, each shard folds its
// observations into private accumulators and the shards are combined
// afterwards in shard-index order. Welford accumulators merge exactly
// (up to float rounding) with the pairwise update of Chan, Golub and
// LeVeque; P² quantile estimators cannot be merged exactly — the five
// markers are a lossy sketch — so MergeQuantile combines them by
// n-weighted interpolation of the per-shard marker CDFs. Both
// reductions are deterministic functions of the shard list, so a merged
// result is bit-stable for a fixed shard count; across *different*
// shard counts the quantile merge is approximate by construction (the
// mean merge agrees to rounding error).

// Merge folds the observations summarized by o into w, as if every one
// of them had been Added to w directly (up to float rounding): the
// pairwise combination of Chan, Golub and LeVeque (1979). Merging a
// zero-value accumulator is the identity in either direction.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	w.mean += (o.mean - w.mean) * float64(o.n) / float64(n)
	w.n = n
}

// cdfAt evaluates the piecewise-linear empirical CDF through the points
// (xs[i], fs[i]) at v: 0 below the first point, 1 above the last,
// linear in between, with zero-width segments treated as steps. xs must
// be sorted ascending.
func cdfAt(xs, fs []float64, v float64) float64 {
	if len(xs) == 1 {
		if v < xs[0] {
			return 0
		}
		return 1
	}
	if v <= xs[0] {
		if v == xs[0] {
			return fs[0]
		}
		return 0
	}
	last := len(xs) - 1
	if v >= xs[last] {
		return 1
	}
	// Find the segment [xs[i], xs[i+1]) containing v.
	lo, hi := 0, last
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if xs[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	dx := xs[hi] - xs[lo]
	if dx <= 0 {
		return fs[hi]
	}
	return fs[lo] + (fs[hi]-fs[lo])*(v-xs[lo])/dx
}

// markerCDF extracts one shard's piecewise-linear CDF support points:
// the exact sorted observations while the estimator is still in its
// boot phase (n <= 5), the five P² markers with their actual rank
// positions afterwards. Returns nil for an empty shard.
func (e *P2Quantile) markerCDF() (xs, fs []float64) {
	if e.n == 0 {
		return nil, nil
	}
	if e.n <= 5 {
		s := append([]float64(nil), e.boot...)
		sortFloat64s(s)
		xs = s
		fs = make([]float64, len(s))
		if len(s) > 1 {
			for i := range s {
				fs[i] = float64(i) / float64(len(s)-1)
			}
		}
		return xs, fs
	}
	xs = append([]float64(nil), e.q[:]...)
	fs = make([]float64, 5)
	for i := range fs {
		fs[i] = (e.pos[i] - 1) / float64(e.n-1)
	}
	return xs, fs
}

// MergeQuantile estimates the p-quantile of the pooled stream behind
// the given per-shard P² estimators: each shard contributes its marker
// CDF weighted by its observation count, and the pooled quantile is the
// value v solving sum_i n_i * F_i(v) = p * N by bisection. Empty
// shards are ignored; a single non-empty shard returns its own Value()
// exactly, so a one-shard sweep is bit-identical to the unsharded run.
// The estimate is deterministic in the shard list (bit-stable at a
// fixed shard count) and approximate across shard counts, exactly like
// the underlying P² sketch is approximate in n.
func MergeQuantile(p float64, shards []*P2Quantile) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: MergeQuantile needs 0 < p < 1")
	}
	type cdf struct {
		xs, fs []float64
		n      float64
	}
	var (
		parts []cdf
		total float64
		last  *P2Quantile
	)
	for _, e := range shards {
		if e == nil || e.n == 0 {
			continue
		}
		xs, fs := e.markerCDF()
		parts = append(parts, cdf{xs: xs, fs: fs, n: float64(e.n)})
		total += float64(e.n)
		last = e
	}
	if len(parts) == 0 {
		return 0
	}
	if len(parts) == 1 {
		return last.Value()
	}
	lo, hi := parts[0].xs[0], parts[0].xs[len(parts[0].xs)-1]
	for _, c := range parts[1:] {
		if x := c.xs[0]; x < lo {
			lo = x
		}
		if x := c.xs[len(c.xs)-1]; x > hi {
			hi = x
		}
	}
	if lo == hi {
		return lo
	}
	target := p * total
	mass := func(v float64) float64 {
		s := 0.0
		for _, c := range parts {
			s += c.n * cdfAt(c.xs, c.fs, v)
		}
		return s
	}
	// Bisection: mass is nondecreasing in v, so 100 halvings pin the
	// crossing far below float precision of the data range.
	for i := 0; i < 100 && lo < hi; i++ {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		if mass(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// sortFloat64s is a tiny insertion sort: merge inputs are at most five
// boot observations, not worth pulling sort.Float64s' interface
// machinery into the merge path.
func sortFloat64s(s []float64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
