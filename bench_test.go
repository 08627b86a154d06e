// Benchmarks regenerating every table and figure of the paper at a
// reduced scale, plus the ablation benches for the design choices called
// out in DESIGN.md and micro-benchmarks of the substrates.
//
// The figure benches report the experiment's headline quantity (mean
// response time, Pearson r, percent contiguous) through b.ReportMetric so
// `go test -bench` doubles as a tabular summary of the reproduction.
package meshalloc

import (
	"bytes"
	"fmt"
	"testing"

	"meshalloc/internal/alloc"
	"meshalloc/internal/binpack"
	"meshalloc/internal/core"
	"meshalloc/internal/curve"
	"meshalloc/internal/fault"
	"meshalloc/internal/netsim"
	"meshalloc/internal/sim"
	"meshalloc/internal/topo"
	"meshalloc/internal/trace"
)

// reportMetric forwards a headline metric to the bench framework.
func reportMetric(b *testing.B, unit string, v float64) {
	b.Helper()
	b.ReportMetric(v, unit)
}

// benchOpt is the reduced experiment scale used by the figure benches.
func benchOpt() core.Options {
	return core.Options{Jobs: 300, TimeScale: 0.01, Seed: 1, Loads: []float64{1.0, 0.2}}
}

// benchTrace returns a small shared workload for single-run benches.
func benchTrace(jobs, maxSize int) *trace.Trace {
	return trace.NewSDSC(trace.SDSCConfig{Jobs: jobs, MaxSize: maxSize, Seed: 1}).FilterMaxSize(maxSize)
}

func BenchmarkFig1TestSuiteCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := core.Fig1(core.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		reportPearson(b, fig)
	}
}

func BenchmarkFig6Truncation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := core.Fig6()
		if len(fig.Tables) != 2 {
			b.Fatal("fig6 incomplete")
		}
	}
}

// benchResponseFigure runs one pattern/mesh slice of Figures 7/8 and
// reports the best and worst allocator's mean response at 5x load.
func benchResponseFigure(b *testing.B, w, h int, pattern string) {
	tr := benchTrace(300, w*h)
	for i := 0; i < b.N; i++ {
		best, worst := "", ""
		bestY, worstY := 0.0, 0.0
		for _, spec := range alloc.Specs() {
			res, err := sim.Run(sim.Config{
				MeshW: w, MeshH: h,
				Alloc: spec, Pattern: pattern,
				Load: 0.2, TimeScale: 0.01, Seed: 1,
			}, tr)
			if err != nil {
				b.Fatal(err)
			}
			if best == "" || res.MeanResponse < bestY {
				best, bestY = spec, res.MeanResponse
			}
			if worst == "" || res.MeanResponse > worstY {
				worst, worstY = spec, res.MeanResponse
			}
		}
		reportMetric(b, "best_resp_s", bestY)
		reportMetric(b, "worst_resp_s", worstY)
		if i == 0 {
			b.Logf("%s %dx%d: best %s (%.0f s), worst %s (%.0f s)", pattern, w, h, best, bestY, worst, worstY)
		}
	}
}

func BenchmarkFig7aAllToAll16x22(b *testing.B) { benchResponseFigure(b, 16, 22, "alltoall") }
func BenchmarkFig7bNBody16x22(b *testing.B)    { benchResponseFigure(b, 16, 22, "nbody") }
func BenchmarkFig7cRandom16x22(b *testing.B)   { benchResponseFigure(b, 16, 22, "random") }
func BenchmarkFig8aAllToAll16x16(b *testing.B) { benchResponseFigure(b, 16, 16, "alltoall") }
func BenchmarkFig8bNBody16x16(b *testing.B)    { benchResponseFigure(b, 16, 16, "nbody") }
func BenchmarkFig8cRandom16x16(b *testing.B)   { benchResponseFigure(b, 16, 16, "random") }

func BenchmarkFig9PairwiseDistance(b *testing.B) {
	opt := core.Options{Jobs: 1200, TimeScale: 0.01, Seed: 1}
	for i := 0; i < b.N; i++ {
		fig, err := core.Fig9(opt)
		if err != nil {
			b.Fatal(err)
		}
		reportPearson(b, fig)
	}
}

func BenchmarkFig10MessageDistance(b *testing.B) {
	opt := core.Options{Jobs: 1200, TimeScale: 0.01, Seed: 1}
	for i := 0; i < b.N; i++ {
		fig, err := core.Fig10(opt)
		if err != nil {
			b.Fatal(err)
		}
		reportPearson(b, fig)
	}
}

func BenchmarkFig11Contiguity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := core.Fig11(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		// Top row's contiguity percentage.
		var pct float64
		fmt.Sscanf(fig.Tables[0].Rows[0][1], "%g%%", &pct)
		reportMetric(b, "top_pct_contig", pct)
	}
}

func reportPearson(b *testing.B, fig *core.Figure) {
	b.Helper()
	for _, n := range fig.Notes {
		var r float64
		if i := indexOf(n, "Pearson r = "); i >= 0 {
			if _, err := fmt.Sscanf(n[i:], "Pearson r = %g", &r); err == nil {
				reportMetric(b, "pearson_r", r)
				return
			}
		}
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

func ablationRun(b *testing.B, mutate func(*sim.Config)) float64 {
	b.Helper()
	tr := benchTrace(250, 256)
	cfg := sim.Config{
		MeshW: 16, MeshH: 16,
		Alloc: "hilbert/bestfit", Pattern: "nbody",
		Load: 0.4, TimeScale: 0.01, Seed: 1,
	}
	mutate(&cfg)
	res, err := sim.Run(cfg, tr)
	if err != nil {
		b.Fatal(err)
	}
	return res.MeanResponse
}

func BenchmarkAblationIssueMode(b *testing.B) {
	for _, mode := range []sim.IssueMode{sim.IssuePhased, sim.IssueSequential} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				y := ablationRun(b, func(c *sim.Config) { c.Issue = mode })
				reportMetric(b, "mean_resp_s", y)
			}
		})
	}
}

func BenchmarkAblationStrategy(b *testing.B) {
	for _, strat := range []string{"hilbert", "hilbert/firstfit", "hilbert/bestfit", "hilbert/sumofsquares"} {
		b.Run(strat, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				y := ablationRun(b, func(c *sim.Config) { c.Alloc = strat })
				reportMetric(b, "mean_resp_s", y)
			}
		})
	}
}

func BenchmarkAblationTruncation(b *testing.B) {
	// S-curve runs along the short versus long dimension on the
	// non-square 16x22 mesh.
	tr := benchTrace(250, 352)
	for _, spec := range []string{"scurve/bestfit", "scurve-long/bestfit"} {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{
					MeshW: 16, MeshH: 22,
					Alloc: spec, Pattern: "nbody",
					Load: 0.4, TimeScale: 0.01, Seed: 1,
				}, tr)
				if err != nil {
					b.Fatal(err)
				}
				reportMetric(b, "mean_resp_s", res.MeanResponse)
			}
		})
	}
}

func BenchmarkAblationFlits(b *testing.B) {
	for _, flits := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("flits%d", flits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				y := ablationRun(b, func(c *sim.Config) {
					c.Net = netsim.DefaultConfig()
					c.Net.MessageFlits = flits
				})
				reportMetric(b, "mean_resp_s", y)
			}
		})
	}
}

func BenchmarkAblationMCShape(b *testing.B) {
	for _, spec := range []string{"mc", "mc1x1"} {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				y := ablationRun(b, func(c *sim.Config) { c.Alloc = spec })
				reportMetric(b, "mean_resp_s", y)
			}
		})
	}
}

func BenchmarkAblationRouting(b *testing.B) {
	for _, r := range []netsim.Routing{netsim.RouteXY, netsim.RouteYX, netsim.RouteAdaptive} {
		b.Run(r.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				y := ablationRun(b, func(c *sim.Config) {
					c.Net = netsim.DefaultConfig()
					c.Net.Routing = r
				})
				reportMetric(b, "mean_resp_s", y)
			}
		})
	}
}

func BenchmarkExtContiguousBaselines(b *testing.B) {
	tr := benchTrace(200, 256)
	for _, spec := range []string{"buddy", "submesh", "hilbert/bestfit"} {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{
					MeshW: 16, MeshH: 16,
					Alloc: spec, Pattern: "alltoall",
					Load: 0.4, TimeScale: 0.01, Seed: 1,
				}, tr)
				if err != nil {
					b.Fatal(err)
				}
				reportMetric(b, "utilization_pct", res.UtilizationPct)
				reportMetric(b, "mean_resp_s", res.MeanResponse)
			}
		})
	}
}

func BenchmarkAblationScheduler(b *testing.B) {
	for _, sch := range []string{"fcfs", "easy"} {
		b.Run(sch, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				y := ablationRun(b, func(c *sim.Config) { c.Scheduler = sch })
				reportMetric(b, "mean_resp_s", y)
			}
		})
	}
}

// BenchmarkAblationCube3D probes the tentpole question of the 3-D
// extension: how much contention signal does the paper's 2-D projection
// of CPlant lose versus native 3-D allocation? Same machine, same
// trace; only the allocator's view of the topology changes.
func BenchmarkAblationCube3D(b *testing.B) {
	tr := benchTrace(250, 512)
	for _, spec := range []string{"hilbert/bestfit", "proj2d-hilbert/bestfit", "hilbert", "proj2d-hilbert", "mc1x1"} {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{
					Dims:  []int{8, 8, 8},
					Alloc: spec, Pattern: "nbody",
					Load: 0.2, TimeScale: 0.01, Seed: 1,
				}, tr)
				if err != nil {
					b.Fatal(err)
				}
				reportMetric(b, "mean_resp_s", res.MeanResponse)
				reportMetric(b, "avg_hops", res.Net.AvgHops())
			}
		})
	}
}

// --- Engine benches (see BENCH.md, "streaming engine") ---

// BenchmarkEngineVsBatch compares the batch Run wrapper against the
// streaming engine on the same closed workload: "batch" retains every
// record and node slice, "engine-discard" streams records through an
// observer and keeps O(1) per-job state. The outputs agree exactly
// (see sim's equivalence tests); the difference is wall time and
// allocated bytes, reported per job.
func BenchmarkEngineVsBatch(b *testing.B) {
	const jobs = 5000
	tr := benchTrace(jobs, 256)
	cfg := sim.Config{
		MeshW: 16, MeshH: 16,
		Alloc: "hilbert/bestfit", Pattern: "nbody",
		Load: 0.4, TimeScale: 0.01, Seed: 1,
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(cfg, tr)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Records) != jobs {
				b.Fatal("short run")
			}
		}
		reportMetric(b, "ns_per_job", float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs))
	})
	b.Run("engine-discard", func(b *testing.B) {
		scfg := cfg
		scfg.KeepRecords, scfg.KeepNodes = sim.Discard, sim.Discard
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, err := sim.NewEngine(scfg)
			if err != nil {
				b.Fatal(err)
			}
			count := 0
			e.Observe(func(sim.JobRecord) { count++ })
			if err := e.RunSource(tr.Source(), 0); err != nil {
				b.Fatal(err)
			}
			if count != jobs {
				b.Fatal("short run")
			}
		}
		reportMetric(b, "ns_per_job", float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs))
	})
}

// --- Scheduler benches (see BENCH.md, "event-core overhaul") ---

// BenchmarkSchedulerRound times the incremental scheduler state: the
// EASY backfill policy — the one whose shadow-time scan reads the
// end-time-ordered running index every round — over a saturated closed
// workload. ns_per_round divides wall time by rounds actually run (EASY
// never skips on the head-blocked watermark).
func BenchmarkSchedulerRound(b *testing.B) {
	tr := benchTrace(5000, 256)
	var rounds int64
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{
			MeshW: 16, MeshH: 16,
			Alloc: "hilbert/bestfit", Pattern: "nbody",
			Load: 0.4, TimeScale: 0.01, Seed: 1,
			Scheduler:   "easy",
			KeepRecords: sim.Discard,
			KeepNodes:   sim.Discard,
		}
		e, err := sim.NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		count := 0
		e.Observe(func(sim.JobRecord) { count++ })
		if err := e.RunSource(tr.Source(), 0); err != nil {
			b.Fatal(err)
		}
		if count != len(tr.Jobs) {
			b.Fatal("short run")
		}
		rounds += e.CoreStats().SchedRounds
	}
	reportMetric(b, "ns_per_round", float64(b.Elapsed().Nanoseconds())/float64(rounds))
}

// --- Parallel experiment fabric (see BENCH.md) ---

// benchSweepScaling runs one replicated experiment at several worker
// counts and reports wall_s per count plus the speedup of the widest
// pool over the sequential run. Because the fabric is bit-deterministic
// the runs produce identical figures — only wall_s moves, and only with
// real cores: on a single-core host every worker count reports ~the
// same wall time (the honest result; see BENCH.md).
func benchSweepScaling(b *testing.B, name string, build func(core.Options) (*core.Figure, error)) {
	var wall [4]float64
	counts := []int{1, 2, 4, 8}
	for ci, workers := range counts {
		b.Run(fmt.Sprintf("%s/workers%d", name, workers), func(b *testing.B) {
			opt := core.Options{Jobs: 120, TimeScale: 0.01, Seed: 1,
				Loads: []float64{1.0, 0.4}, Replications: 4, Parallelism: workers}
			for i := 0; i < b.N; i++ {
				fig, err := build(opt)
				if err != nil {
					b.Fatal(err)
				}
				if len(fig.Series) == 0 && len(fig.Tables) == 0 {
					b.Fatal("empty figure")
				}
			}
			wall[ci] = b.Elapsed().Seconds() / float64(b.N)
			reportMetric(b, "wall_s", wall[ci])
			if ci > 0 && wall[0] > 0 {
				reportMetric(b, "speedup_vs_seq", wall[0]/wall[ci])
			}
		})
	}
}

// BenchmarkParallelSweepFig7b scales the replicated Figure 7(b) grid —
// 9 allocators x 2 loads x 4 replications — across the sweep pool.
func BenchmarkParallelSweepFig7b(b *testing.B) {
	benchSweepScaling(b, "fig7b", func(o core.Options) (*core.Figure, error) {
		return core.Fig7(o)
	})
}

// BenchmarkParallelSweepExtSteady scales the replicated open-system
// steady-state table, whose reduction exercises the streaming merges.
func BenchmarkParallelSweepExtSteady(b *testing.B) {
	benchSweepScaling(b, "ext-steady", func(o core.Options) (*core.Figure, error) {
		return core.ExtSteady(o)
	})
}

// --- Micro-benchmarks of the substrates ---

func BenchmarkAllocate(b *testing.B) {
	m := topo.New([]int{16, 22})
	for _, spec := range alloc.Specs() {
		b.Run(spec, func(b *testing.B) {
			a, err := alloc.Spec(m, spec, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids, err := a.Allocate(alloc.Request{Size: 16})
				if err != nil {
					b.Fatal(err)
				}
				a.Release(ids)
			}
		})
	}
}

// prefillAllocator drives the allocator to a dense mixed occupancy:
// a deterministic stream of mixed-size jobs is allocated until the
// machine is ~97% busy — the paper's Figure 7/8 runs push machines past
// saturation, where utilization sits in the 80-95% band — and then
// every fifth job is released, leaving ~80% busy with scattered
// mixed-size holes in the allocator's own placement pattern. Because
// the indexed and reference scorers are bit-identical, both reach the
// exact same state and the benchmark compares pure scoring cost.
func prefillAllocator(b *testing.B, a alloc.Allocator, total int) {
	b.Helper()
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	var live [][]int
	for a.NumFree() > total*3/100 {
		size := 1 + next(32)
		if size > a.NumFree() {
			size = a.NumFree()
		}
		ids, err := a.Allocate(alloc.Request{Size: size})
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, ids)
	}
	for i := 0; i < len(live); i += 5 {
		a.Release(live[i])
	}
}

// BenchmarkAllocateLarge times the MC-family and Gen-Alg scorers on
// production-scale machines, with Gen-Alg's reference (pre-index)
// scorer alongside for the before/after comparison, in two regimes.
// The dense one (~80% busy, 64-processor requests) is the paper's
// past-saturation Figure 7/8 band, where MC's cost floor rarely stops
// the scan. The sparse one is what the alloc-3d trace actually sees on
// 16x16x16: at a mean Gen-Alg Allocate there, 3,979 of 4,096 nodes are
// free and 94% of requests ask for at most 32, so it runs every variant
// at ~3% busy with 16-processor requests, where MC and MC1x1 mostly
// stop at the floor. See BENCH.md, "the occupancy index".
func BenchmarkAllocateLarge(b *testing.B) {
	machines := []struct {
		name string
		dims []int
	}{
		{"32x32", []int{32, 32}},
		{"16x16x16", []int{16, 16, 16}},
	}
	variants := []struct {
		name string
		mk   func(*topo.Grid) alloc.Allocator
	}{
		{"mc", func(g *topo.Grid) alloc.Allocator { return alloc.NewMC(g) }},
		{"mc1x1", func(g *topo.Grid) alloc.Allocator { return alloc.NewMC1x1(g) }},
		{"genalg", func(g *topo.Grid) alloc.Allocator { return alloc.NewGenAlg(g) }},
		{"genalg/naive", func(g *topo.Grid) alloc.Allocator { return alloc.NewGenAlgNaive(g) }},
	}
	for _, m := range machines {
		for _, v := range variants {
			b.Run(m.name+"/"+v.name, func(b *testing.B) {
				g := topo.New(m.dims)
				a := v.mk(g)
				prefillAllocator(b, a, g.Size())
				benchAllocateCycle(b, a, 64)
			})
		}
	}
	for _, v := range variants {
		b.Run("16x16x16-sparse/"+v.name, func(b *testing.B) {
			g := topo.New([]int{16, 16, 16})
			a := v.mk(g)
			prefillSparse(b, a, g.Size())
			benchAllocateCycle(b, a, 16)
		})
	}
}

// prefillSparse allocates 16-processor jobs until ~3% of the machine
// is busy, the state alloc-3d's Gen-Alg allocations see.
func prefillSparse(tb testing.TB, a alloc.Allocator, total int) {
	tb.Helper()
	for a.NumFree() > total*97/100 {
		if _, err := a.Allocate(alloc.Request{Size: 16}); err != nil {
			tb.Fatal(err)
		}
	}
}

// benchAllocateCycle times Allocate+Release of size-processor requests
// from a's current state and reports ns_per_alloc.
func benchAllocateCycle(b *testing.B, a alloc.Allocator, size int) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, err := a.Allocate(alloc.Request{Size: size})
		if err != nil {
			b.Fatal(err)
		}
		a.Release(ids)
	}
	reportMetric(b, "ns_per_alloc", float64(b.Elapsed().Nanoseconds())/float64(b.N))
}

// prefillPacker drives a bin-packer to the same ~80% mixed occupancy as
// prefillAllocator, leaving scattered mixed-size holes in curve-rank
// space so interval enumeration crosses many free runs.
func prefillPacker(b *testing.B, p *binpack.Packer, total int) {
	b.Helper()
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	var live [][]int
	for p.NumFree() > total*3/100 {
		size := 1 + next(32)
		if size > p.NumFree() {
			size = p.NumFree()
		}
		ids, err := p.Allocate(size, binpack.FirstFit)
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, ids)
	}
	for i := 0; i < len(live); i += 5 {
		p.Release(live[i])
	}
}

// BenchmarkBitsetScan times first-fit and best-fit candidate enumeration
// over the word-parallel bitset free map at mixed occupancy on 32x32 and
// 16x16x16 machines (see BENCH.md, "word-parallel bitset occupancy").
func BenchmarkBitsetScan(b *testing.B) {
	machines := []struct {
		name string
		dims []int
	}{
		{"32x32", []int{32, 32}},
		{"16x16x16", []int{16, 16, 16}},
	}
	for _, m := range machines {
		order, err := curve.GridOrder(curve.Hilbert{}, m.dims)
		if err != nil {
			b.Fatal(err)
		}
		for _, strat := range []binpack.Strategy{binpack.FirstFit, binpack.BestFit} {
			b.Run(fmt.Sprintf("%s/%s", m.name, strat), func(b *testing.B) {
				p := binpack.New(order)
				prefillPacker(b, p, len(order))
				// A small request keeps the shared Allocate/Release
				// bookkeeping (id slice, rank marking) from drowning out
				// the interval enumeration under measurement.
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ids, err := p.Allocate(8, strat)
					if err != nil {
						b.Fatal(err)
					}
					p.Release(ids)
				}
				reportMetric(b, "ns_per_alloc", float64(b.Elapsed().Nanoseconds())/float64(b.N))
			})
		}
	}
}

// checkpointEngine builds the faults-ckpt workload of the bench/
// benchmark — 40,000 SDSC jobs capped at 128 processors on 16x16, EASY,
// dense exponential node faults with backoff retries, all submitted up
// front — and steps it to its first checkpoint at 10,000 events. Most of
// those are message steps, so almost every arrival is still queued:
// 39,778 of them, in a 2.57 MB snapshot.
func checkpointEngine(b *testing.B) *sim.Engine {
	b.Helper()
	e, err := sim.NewEngine(sim.Config{
		MeshW: 16, MeshH: 16,
		Alloc: "hilbert/bestfit", Pattern: "nbody", Scheduler: "easy",
		TimeScale: 0.02, MsgsPerSecond: 0.5, Seed: 1,
		KeepRecords: sim.Discard, KeepNodes: sim.Discard,
		Faults: fault.Config{
			Seed: 1,
			MTBF: fault.Dist{Kind: fault.DistExponential, Mean: 3e5},
			MTTR: fault.Dist{Kind: fault.DistExponential, Mean: 1.5e4},
		},
		Retry: fault.Retry{Kind: fault.RetryBackoff, Base: 60, Cap: 3600, MaxAttempts: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, j := range trace.NewSDSC(trace.SDSCConfig{Jobs: 40000, MaxSize: 128, Seed: 1}).Jobs {
		if err := e.Submit(j); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 10000; i++ {
		e.Step()
	}
	return e
}

// BenchmarkSnapshot times one checkpoint's Engine.Snapshot on the
// faults-ckpt state, into a buffer reused across iterations as a
// checkpointing run reuses its own.
func BenchmarkSnapshot(b *testing.B) {
	e := checkpointEngine(b)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := e.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportMetric(b, "snapshot_bytes", float64(buf.Len()))
}

// BenchmarkAudit times one checkpoint's Engine.Audit on the faults-ckpt
// state.
func BenchmarkAudit(b *testing.B) {
	e := checkpointEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Audit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultStream times raw failure-schedule generation: one
// simulated year of dense exponential failure/repair churn across a
// 1024-node machine, no simulator attached.
func BenchmarkFaultStream(b *testing.B) {
	cfg := fault.Config{
		Seed: 1,
		MTBF: fault.Dist{Kind: fault.DistExponential, Mean: 3e5},
		MTTR: fault.Dist{Kind: fault.DistExponential, Mean: 1.5e4},
	}
	for i := 0; i < b.N; i++ {
		s, err := fault.NewStream(cfg, 1024)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			ev, ok := s.Next()
			if !ok || ev.T > 365*86400 {
				break
			}
			n++
		}
		if n == 0 {
			b.Fatal("no events")
		}
		reportMetric(b, "events_per_year", float64(n))
	}
}

// benchmarkSend times one burst Send of sendBurst messages per
// iteration on g, a new instant each time, and reports ns per message.
func benchmarkSend(b *testing.B, g *topo.Grid) {
	n := netsim.New(g, netsim.DefaultConfig())
	nodes, msgs := sendTraffic(g)
	var sums netsim.Sums
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * sendBurst % (len(msgs) - sendBurst)
		n.Send(msgs[off:off+sendBurst], nodes, float64(i), &sums)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sendBurst), "ns/msg")
}

func BenchmarkNetworkSend(b *testing.B) { benchmarkSend(b, topo.New([]int{16, 22})) }

func BenchmarkNetworkSend3D(b *testing.B) { benchmarkSend(b, topo.New([]int{8, 8, 8})) }

func BenchmarkCurveOrder(b *testing.B) {
	for _, name := range curve.All() {
		b.Run(name, func(b *testing.B) {
			c, err := curve.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if got := c.Order(16, 22); len(got) != 352 {
					b.Fatal("bad order")
				}
			}
		})
	}
}

func BenchmarkBinpackStrategies(b *testing.B) {
	order := curve.Hilbert{}.Order(16, 22)
	for _, s := range []binpack.Strategy{binpack.FreeList, binpack.FirstFit, binpack.BestFit, binpack.SumOfSquares} {
		b.Run(s.String(), func(b *testing.B) {
			p := binpack.New(order)
			for i := 0; i < b.N; i++ {
				ids, err := p.Allocate(24, s)
				if err != nil {
					b.Fatal(err)
				}
				p.Release(ids)
			}
		})
	}
}

func BenchmarkEndToEndSmall(b *testing.B) {
	tr := benchTrace(100, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{
			MeshW: 8, MeshH: 8,
			Alloc: "hilbert/bestfit", Pattern: "alltoall",
			TimeScale: 0.01, Seed: 1,
		}, tr); err != nil {
			b.Fatal(err)
		}
	}
}
