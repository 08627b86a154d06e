package core

import (
	"fmt"
	"sort"

	"meshalloc/internal/alloc"
	"meshalloc/internal/sim"
	"meshalloc/internal/stats"
	"meshalloc/internal/trace"
)

// Patterns evaluated in Figures 7 and 8.
var responsePatterns = []string{"alltoall", "nbody", "random"}

// newTrace builds the synthetic SDSC trace for the options.
func newTrace(o Options, maxSize int) *trace.Trace {
	tr := trace.NewSDSC(trace.SDSCConfig{Jobs: 6087, MaxSize: maxSize, Seed: o.Seed})
	return tr.Truncate(o.Jobs).FilterMaxSize(maxSize)
}

// gridKey identifies one cell in a response-time grid; replications are
// not part of the key — the sweep runner shards them underneath.
type gridKey struct {
	allocSpec string
	pattern   string
	load      float64
}

// responseFigure runs the 9-allocator x loads grid for each pattern on a
// w x h mesh and assembles the response-time-versus-load figure
// (Figures 7 and 8 of the paper). With Options.Replications > 1, every
// cell runs once per derived replication stream (each replication also
// redraws the synthetic trace from its RepSeed) and the series carry
// mean ± standard deviation, reduced in replication order so the figure
// is bit-identical at any Parallelism.
func responseFigure(id, title string, w, h int, o Options) (*Figure, error) {
	o = o.withDefaults()
	loads := sortedLoadsDescending(o.Loads)
	traces := make([]*trace.Trace, o.Replications)
	if err := forEachShard(o.Replications, o.Parallelism, func(r int) error {
		ro := o
		ro.Seed = RepSeed(o.Seed, r)
		traces[r] = newTrace(ro, w*h)
		return nil
	}); err != nil {
		return nil, err
	}

	var keys []gridKey
	for _, p := range responsePatterns {
		for _, a := range alloc.Specs() {
			for _, l := range loads {
				keys = append(keys, gridKey{allocSpec: a, pattern: p, load: l})
			}
		}
	}
	results, err := runSweep(keys, o, func(k gridKey, rep int, seed int64) (float64, error) {
		res, err := runAggregates(sim.Config{
			MeshW: w, MeshH: h,
			Alloc:     k.allocSpec,
			Pattern:   k.pattern,
			Load:      k.load,
			TimeScale: o.TimeScale,
			Seed:      seed,
		}, traces[rep])
		if err != nil {
			return 0, err
		}
		return res.MeanResponse, nil
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{ID: id, Title: title}
	for _, p := range responsePatterns {
		for _, a := range alloc.Specs() {
			s := Series{Label: fmt.Sprintf("%s %s", p, a)}
			for _, l := range loads {
				ys := results[gridKey{allocSpec: a, pattern: p, load: l}]
				s.X = append(s.X, l)
				s.Y = append(s.Y, stats.Mean(ys))
				if o.Replications > 1 {
					s.YErr = append(s.YErr, stats.StdDev(ys))
				}
			}
			fig.Series = append(fig.Series, s)
		}
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("trace: %d jobs, time scale %g, seed %d, replications %d",
			len(traces[0].Jobs), o.TimeScale, o.Seed, o.Replications),
		"y values are mean response times in (re-inflated) seconds; the paper's axis unit is 10M sec")
	return fig, nil
}

// runAggregates runs cfg over tr keeping no records or node lists. The
// figures and tables that print only the streaming aggregates (mean
// response, queue length, utilization, contiguity, hops, goodput,
// kills) read the same bits as with records kept.
func runAggregates(cfg sim.Config, tr *trace.Trace) (*sim.Result, error) {
	cfg.KeepRecords, cfg.KeepNodes = sim.Discard, sim.Discard
	return sim.Run(cfg, tr)
}

// Fig7 reproduces Figure 7: response time versus load on the 16x22 mesh
// for the all-to-all (a), n-body (b) and random (c) patterns.
func Fig7(o Options) (*Figure, error) {
	return responseFigure("fig7", "Response time vs load, 16x22 mesh (a) all-to-all (b) n-body (c) random", 16, 22, o)
}

// Fig8 reproduces Figure 8: the same grid on the 16x16 mesh, with jobs
// larger than 256 processors removed as in the paper.
func Fig8(o Options) (*Figure, error) {
	return responseFigure("fig8", "Response time vs load, 16x16 mesh (a) all-to-all (b) n-body (c) random", 16, 16, o)
}

// largeJobRecords runs the n-body pattern on the 16x16 mesh for every
// allocator at load 1.0 and collects the records of the largest jobs
// (128 processors) within a quota band around the paper's 39,900-44,000
// messages, scaled by TimeScale, without the node lists nothing reads.
func largeJobRecords(o Options) ([]sim.JobRecord, error) {
	o = o.withDefaults()
	tr := newTrace(o, 256)
	results, err := runGrid(alloc.Specs(), o.Parallelism, func(a string) (*sim.Result, error) {
		cfg := sim.Config{
			MeshW: 16, MeshH: 16,
			Alloc:     a,
			Pattern:   "nbody",
			Load:      1.0,
			TimeScale: o.TimeScale,
			Seed:      o.Seed,
			KeepNodes: sim.Discard,
		}
		return sim.Run(cfg, tr)
	})
	if err != nil {
		return nil, err
	}
	// The paper's band is 39,900-44,000 messages out of runtimes around
	// 40,000 s; accept jobs within a factor-2 band around the scaled
	// equivalent so the sample stays usefully large at small scales.
	lo := 20000 * o.TimeScale
	hi := 88000 * o.TimeScale
	var recs []sim.JobRecord
	for _, a := range alloc.Specs() {
		for _, r := range results[a].Records {
			if r.Size == 128 && float64(r.Quota) >= lo && float64(r.Quota) <= hi {
				recs = append(recs, r)
			}
		}
	}
	return recs, nil
}

// correlationFigure builds a runtime-versus-metric scatter from large
// n-body jobs and reports the Pearson correlation.
func correlationFigure(id, title string, o Options, metric func(sim.JobRecord) float64, metricName string) (*Figure, error) {
	o = o.withDefaults()
	recs, err := largeJobRecords(o)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("core: no 128-processor jobs in the quota band; increase Options.Jobs")
	}
	var xs, ys []float64
	s := Series{Label: fmt.Sprintf("running time vs %s (128-proc n-body jobs)", metricName)}
	for _, r := range recs {
		// Normalize to the running time of a full-scale 41,000-message
		// job: RunTime is re-inflated by 1/TimeScale, so per-message
		// time is RunTime*TimeScale/Quota.
		y := r.RunTime * o.TimeScale * 41000 / float64(r.Quota)
		x := metric(r)
		xs = append(xs, x)
		ys = append(ys, y)
		s.X = append(s.X, x)
		s.Y = append(s.Y, y)
	}
	fig := &Figure{ID: id, Title: title, Series: []Series{s}}
	r := stats.Pearson(xs, ys)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("jobs: %d; Pearson r = %.3f", len(recs), r),
		"runtimes normalized to a 41,000-message quota as in the paper's band")
	for _, b := range stats.BinXY(xs, ys, 6) {
		if b.Count > 0 {
			fig.Notes = append(fig.Notes,
				fmt.Sprintf("bin [%.2f,%.2f): n=%d mean runtime %.0f s", b.Lo, b.Hi, b.Count, b.MeanY))
		}
	}
	return fig, nil
}

// Fig9 reproduces Figure 9: running time versus average pairwise
// processor distance for large n-body jobs — the paper finds no clear
// relationship.
func Fig9(o Options) (*Figure, error) {
	return correlationFigure("fig9",
		"Running time vs avg pairwise processor distance (no clear relationship expected)",
		o, func(r sim.JobRecord) float64 { return r.AvgPairwise }, "avg pairwise distance")
}

// Fig10 reproduces Figure 10: running time versus average message
// distance for the same jobs — the paper finds a reasonably tight
// relationship.
func Fig10(o Options) (*Figure, error) {
	return correlationFigure("fig10",
		"Running time vs avg message distance (tight positive relationship expected)",
		o, func(r sim.JobRecord) float64 { return r.AvgMsgDist }, "avg message distance")
}

// Fig11 reproduces Figure 11: the percentage of jobs allocated
// contiguously and the mean number of components per job, for all twelve
// allocators, running all-to-all on the 16x16 mesh at load 1.0.
func Fig11(o Options) (*Figure, error) {
	o = o.withDefaults()
	tr := newTrace(o, 256)
	specs := alloc.Fig11Specs()
	results, err := runGrid(specs, o.Parallelism, func(a string) (*sim.Result, error) {
		return runAggregates(sim.Config{
			MeshW: 16, MeshH: 16,
			Alloc:     a,
			Pattern:   "alltoall",
			Load:      1.0,
			TimeScale: o.TimeScale,
			Seed:      o.Seed,
		}, tr)
	})
	if err != nil {
		return nil, err
	}
	type row struct {
		spec string
		pct  float64
		avg  float64
	}
	rows := make([]row, 0, len(specs))
	for _, a := range specs {
		rows = append(rows, row{spec: a, pct: results[a].PctContiguous, avg: results[a].AvgComponents})
	}
	// The paper sorts by percent contiguous, descending. SliceStable keeps
	// the spec order of Fig11Specs for ties, matching the previous
	// insertion sort.
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].pct > rows[j].pct })
	t := Table{Columns: []string{"Algorithm", "% contiguous", "Ave. components"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.spec, fmt.Sprintf("%.1f%%", r.pct), fmt.Sprintf("%.2f", r.avg)})
	}
	return &Figure{
		ID:     "fig11",
		Title:  "Contiguity of allocations, all-to-all on 16x16 at load 1.0",
		Tables: []Table{t},
	}, nil
}

// FigureByID returns the named figure ("1", "6", "7", "8", "9", "10",
// "11" or "fig7" etc.).
func FigureByID(id string, o Options) (*Figure, error) {
	if err := o.check(); err != nil {
		return nil, err
	}
	switch id {
	case "1", "fig1":
		return Fig1(o)
	case "6", "fig6":
		return Fig6(), nil
	case "7", "fig7":
		return Fig7(o)
	case "8", "fig8":
		return Fig8(o)
	case "9", "fig9":
		return Fig9(o)
	case "10", "fig10":
		return Fig10(o)
	case "11", "fig11":
		return Fig11(o)
	default:
		return nil, fmt.Errorf("core: unknown figure %q", id)
	}
}

// AllFigureIDs lists the reproducible figures in paper order.
func AllFigureIDs() []string { return []string{"1", "6", "7", "8", "9", "10", "11"} }
