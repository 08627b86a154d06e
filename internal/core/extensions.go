package core

import (
	"fmt"
	"sort"

	"meshalloc/internal/alloc"
	"meshalloc/internal/netsim"
	"meshalloc/internal/sim"
	"meshalloc/internal/stats"
	"meshalloc/internal/topo"
)

// Extension experiments beyond the paper's figures: the studies its
// Section 2 survey and Section 5 discussion point at but do not run.

// ExtContiguous compares the classic contiguous-only allocators (2-D
// buddy, first-fit submesh) against the paper's noncontiguous field on
// the 16x16 mesh — the "convex allocation reduces utilization" claim of
// Section 2, quantified.
func ExtContiguous(o Options) (*Figure, error) {
	o = o.withDefaults()
	tr := newTrace(o, 256)
	specs := []string{"buddy", "submesh", "hilbert/bestfit", "mc1x1", "hilbert/freelist/page1"}
	results, err := runGrid(specs, o.Parallelism, func(spec string) (*sim.Result, error) {
		return runAggregates(sim.Config{
			MeshW: 16, MeshH: 16,
			Alloc:     spec,
			Pattern:   "alltoall",
			Load:      0.4,
			TimeScale: o.TimeScale,
			Seed:      o.Seed,
			Scheduler: o.Scheduler,
		}, tr)
	})
	if err != nil {
		return nil, err
	}
	t := Table{Columns: []string{
		"Algorithm", "mean response (s)", "mean queue", "utilization %", "% contiguous",
	}}
	for _, spec := range specs {
		r := results[spec]
		t.Rows = append(t.Rows, []string{
			spec,
			fmt.Sprintf("%.0f", r.MeanResponse),
			fmt.Sprintf("%.1f", r.MeanQueueLen),
			fmt.Sprintf("%.1f", r.UtilizationPct),
			fmt.Sprintf("%.1f%%", r.PctContiguous),
		})
	}
	return &Figure{
		ID:     "ext-contiguous",
		Title:  "Contiguous-only baselines vs noncontiguous allocation (all-to-all, 16x16, load 0.4)",
		Tables: []Table{t},
		Notes: []string{
			"buddy and submesh guarantee contiguity but block the FCFS head on fragmentation",
			"page1 is Lo et al.'s original Paging with 2x2 pages (internal fragmentation)",
		},
	}, nil
}

// ExtScheduler crosses the nine allocators with FCFS and EASY
// backfilling — the allocator/scheduler interaction the paper's
// discussion calls for.
func ExtScheduler(o Options) (*Figure, error) {
	o = o.withDefaults()
	tr := newTrace(o, 256)
	type key struct {
		spec  string
		sched string
	}
	var keys []key
	for _, spec := range alloc.Specs() {
		for _, s := range []string{"fcfs", "easy"} {
			keys = append(keys, key{spec: spec, sched: s})
		}
	}
	results, err := runGrid(keys, o.Parallelism, func(k key) (*sim.Result, error) {
		return runAggregates(sim.Config{
			MeshW: 16, MeshH: 16,
			Alloc:     k.spec,
			Pattern:   "alltoall",
			Load:      0.4,
			TimeScale: o.TimeScale,
			Seed:      o.Seed,
			Scheduler: k.sched,
		}, tr)
	})
	if err != nil {
		return nil, err
	}
	t := Table{Columns: []string{"Algorithm", "FCFS resp (s)", "EASY resp (s)", "EASY gain"}}
	rows := make([][]string, 0, len(alloc.Specs()))
	for _, spec := range alloc.Specs() {
		f := results[key{spec, "fcfs"}].MeanResponse
		e := results[key{spec, "easy"}].MeanResponse
		gain := 0.0
		if f > 0 {
			gain = 100 * (f - e) / f
		}
		rows = append(rows, []string{
			spec,
			fmt.Sprintf("%.0f", f),
			fmt.Sprintf("%.0f", e),
			fmt.Sprintf("%+.1f%%", gain),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
	t.Rows = rows
	return &Figure{
		ID:     "ext-scheduler",
		Title:  "FCFS vs EASY backfilling across allocators (all-to-all, 16x16, load 0.4)",
		Tables: []Table{t},
	}, nil
}

// ExtRouting compares x-y, y-x, and congestion-adaptive routing for a
// compact and a dispersing allocator, probing how much of the
// allocation effect routing can recover.
func ExtRouting(o Options) (*Figure, error) {
	o = o.withDefaults()
	tr := newTrace(o, 256)
	type key struct {
		spec  string
		route netsim.Routing
	}
	var keys []key
	specs := []string{"hilbert/bestfit", "scurve"}
	routes := []netsim.Routing{netsim.RouteXY, netsim.RouteYX, netsim.RouteAdaptive}
	for _, spec := range specs {
		for _, r := range routes {
			keys = append(keys, key{spec: spec, route: r})
		}
	}
	results, err := runGrid(keys, o.Parallelism, func(k key) (*sim.Result, error) {
		cfg := sim.Config{
			MeshW: 16, MeshH: 16,
			Alloc:     k.spec,
			Pattern:   "alltoall",
			Load:      0.4,
			TimeScale: o.TimeScale,
			Seed:      o.Seed,
			Scheduler: o.Scheduler,
			Net:       netsim.DefaultConfig(),
		}
		cfg.Net.Routing = k.route
		return runAggregates(cfg, tr)
	})
	if err != nil {
		return nil, err
	}
	t := Table{Columns: []string{"Algorithm", "routing", "mean response (s)"}}
	for _, spec := range specs {
		for _, r := range routes {
			t.Rows = append(t.Rows, []string{
				spec, r.String(),
				fmt.Sprintf("%.0f", results[key{spec, r}].MeanResponse),
			})
		}
	}
	return &Figure{
		ID:     "ext-routing",
		Title:  "Routing sensitivity: x-y vs y-x vs adaptive (all-to-all, 16x16, load 0.4)",
		Tables: []Table{t},
		Notes:  []string{"the paper fixes x-y routing; adaptive routing cannot substitute for good allocation"},
	}, nil
}

// ExtMixed ranks the allocators when every job draws its own pattern —
// the realistic-workload experiment the paper's Section 3 defers.
func ExtMixed(o Options) (*Figure, error) {
	o = o.withDefaults()
	tr := newTrace(o, 256)
	results, err := runGrid(alloc.Specs(), o.Parallelism, func(spec string) (*sim.Result, error) {
		return runAggregates(sim.Config{
			MeshW: 16, MeshH: 16,
			Alloc:     spec,
			Pattern:   "mixed",
			Load:      0.2,
			TimeScale: o.TimeScale,
			Seed:      o.Seed,
			Scheduler: o.Scheduler,
		}, tr)
	})
	if err != nil {
		return nil, err
	}
	type row struct {
		spec string
		resp float64
	}
	rows := make([]row, 0, len(alloc.Specs()))
	for _, spec := range alloc.Specs() {
		rows = append(rows, row{spec: spec, resp: results[spec].MeanResponse})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].resp < rows[j].resp })
	t := Table{Columns: []string{"Algorithm", "mean response (s)"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.spec, fmt.Sprintf("%.0f", r.resp)})
	}
	return &Figure{
		ID:     "ext-mixed",
		Title:  "Allocator ranking under per-job mixed patterns (16x16, load 0.2)",
		Tables: []Table{t},
	}, nil
}

// ExtCube runs the 3-D allocation-quality study: the paper's
// one-dimensional-reduction idea on the 3-D mesh CPlant actually had,
// using the multidimensional Hilbert indexing its Alber–Niedermeier
// reference describes. A seeded allocate/release churn drives every
// allocator through the same job sequence and reports the mean average
// pairwise distance of its allocations; ext-cube3d runs the full
// contention simulation on the same machine.
func ExtCube(o Options) (*Figure, error) {
	o = o.withDefaults()
	g := topo.New([]int{8, 8, 8})
	jobs := max(o.Jobs/10, 50)
	const minSize, maxSize = 4, 48
	t := Table{Columns: []string{"Strategy", "mean avg pairwise distance", "allocations"}}
	for _, spec := range []string{"hilbert", "scurve", "mc1x1", "genalg"} {
		a, err := alloc.Spec(g, spec, o.Seed)
		if err != nil {
			return nil, err
		}
		rng := stats.NewRNG(o.Seed) // identical sequence per strategy
		var live [][]int
		total, count := 0.0, 0
		for j := 0; j < jobs; j++ {
			// Churn: release a random live job half the time.
			if len(live) > 0 && rng.Float64() < 0.5 {
				k := rng.Intn(len(live))
				a.Release(live[k])
				live = append(live[:k], live[k+1:]...)
			}
			size := minSize + rng.Intn(maxSize-minSize+1)
			ids, err := a.Allocate(alloc.Request{Size: size})
			if err != nil {
				continue // machine full; skip, same for every strategy
			}
			live = append(live, ids)
			total += g.AvgPairwiseDist(ids)
			count++
		}
		t.Rows = append(t.Rows, []string{
			spec, fmt.Sprintf("%.3f", total/float64(count)), fmt.Sprintf("%d", count),
		})
	}
	return &Figure{
		ID:     "ext-cube",
		Title:  "3-D mesh allocation quality under churn (8x8x8, sizes 4-48)",
		Tables: []Table{t},
		Notes: []string{
			"hilbert is the multidimensional Hilbert indexing (Skilling construction), scurve the 3-D snake",
			"the 2-D conclusion carries over: curve choice dominates allocation compactness",
		},
	}, nil
}

// cube3DNative and cube3DProjected are the allocator fields of the
// ext-cube3d experiment: each native strategy runs the curve (or shell
// scoring) directly on the 3-D machine, while the proj2d-* variants
// allocate as the paper did for CPlant — unfold the 3-D mesh into a 2-D
// plane, run the 2-D curve there — and then communicate on the real 3-D
// network.
var (
	cube3DNative    = []string{"hilbert", "hilbert/bestfit", "scurve", "mc", "mc1x1", "random"}
	cube3DProjected = []string{"proj2d-hilbert", "proj2d-hilbert/bestfit", "proj2d-scurve"}
)

// ExtCube3D runs the full contention simulation natively on the 8x8x8
// 3-D mesh: the experiment the paper could not run, answering how much
// contention signal the 2-D projection of CPlant loses versus native
// 3-D allocation. Every layer — n-D Hilbert/snake orderings, MC shells
// as box surfaces, dimension-ordered routing, per-link occupancy — runs
// in three dimensions; the proj2d-* rows reproduce the paper's
// projection strategy on the same machine for a like-for-like
// comparison.
func ExtCube3D(o Options) (*Figure, error) {
	o = o.withDefaults()
	dims := []int{8, 8, 8}
	tr := newTrace(o, 8*8*8)
	specs := append(append([]string(nil), cube3DNative...), cube3DProjected...)
	results, err := runGrid(specs, o.Parallelism, func(spec string) (*sim.Result, error) {
		return runAggregates(sim.Config{
			Dims:      dims,
			Alloc:     spec,
			Pattern:   "nbody",
			Load:      0.2,
			TimeScale: o.TimeScale,
			Seed:      o.Seed,
			Scheduler: o.Scheduler,
		}, tr)
	})
	if err != nil {
		return nil, err
	}
	t := Table{Columns: []string{
		"Algorithm", "mean response (s)", "avg msg dist (hops)", "% contiguous", "mean queue",
	}}
	for _, spec := range specs {
		r := results[spec]
		t.Rows = append(t.Rows, []string{
			spec,
			fmt.Sprintf("%.0f", r.MeanResponse),
			fmt.Sprintf("%.2f", r.Net.AvgHops()),
			fmt.Sprintf("%.1f%%", r.PctContiguous),
			fmt.Sprintf("%.1f", r.MeanQueueLen),
		})
	}
	fig := &Figure{
		ID:     "ext-cube3d",
		Title:  "Native 3-D allocation vs the paper's 2-D projection (n-body, 8x8x8, load 0.2)",
		Tables: []Table{t},
		Notes: []string{
			"proj2d-* allocates on the unfolded 8x64 plane (the paper's CPlant strategy) but routes on the true 3-D mesh",
		},
	}
	for _, pair := range [][2]string{
		{"hilbert", "proj2d-hilbert"},
		{"hilbert/bestfit", "proj2d-hilbert/bestfit"},
		{"scurve", "proj2d-scurve"},
	} {
		nat, proj := results[pair[0]].MeanResponse, results[pair[1]].MeanResponse
		if nat > 0 {
			fig.Notes = append(fig.Notes, fmt.Sprintf(
				"projection penalty for %s: %+.1f%% mean response (%.2f vs %.2f avg hops)",
				pair[0], 100*(proj-nat)/nat,
				results[pair[1]].Net.AvgHops(), results[pair[0]].Net.AvgHops()))
		}
	}
	return fig, nil
}

// AllExtensionIDs lists the extension experiments.
func AllExtensionIDs() []string {
	return []string{"ext-contiguous", "ext-scheduler", "ext-routing", "ext-mixed", "ext-cube", "ext-cube3d", "ext-steady", "ext-faults"}
}

// ExtensionByID returns the named extension experiment.
func ExtensionByID(id string, o Options) (*Figure, error) {
	if err := o.check(); err != nil {
		return nil, err
	}
	switch id {
	case "ext-contiguous":
		return ExtContiguous(o)
	case "ext-scheduler":
		return ExtScheduler(o)
	case "ext-routing":
		return ExtRouting(o)
	case "ext-mixed":
		return ExtMixed(o)
	case "ext-cube":
		return ExtCube(o)
	case "ext-cube3d":
		return ExtCube3D(o)
	case "ext-steady":
		return ExtSteady(o)
	case "ext-faults":
		return ExtFaults(o)
	default:
		return nil, fmt.Errorf("core: unknown extension %q", id)
	}
}
