package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"meshalloc/internal/alloc"
	"meshalloc/internal/core"
	"meshalloc/internal/fault"
	"meshalloc/internal/sim"
	"meshalloc/internal/trace"
)

// sizes scales every workload; the benchmark runs fullSizes and the
// tests run tiny ones through the same code.
type sizes struct {
	poissonJobs      int
	poissonReplay    int // deltas replayed against the allocator
	poissonSnapEvery int64
	fig7Jobs         int
	fig7SnapEvery    int64
	alloc3dJobs      int
	alloc3dSnapEvery int64
	faultJobs        int
	ckptEvery        int64
	restoreAt        int // the snapshot the restore check resumes from
}

var fullSizes = sizes{
	poissonJobs:      1_000_000,
	poissonReplay:    200_000,
	poissonSnapEvery: 100_000,
	fig7Jobs:         1500,
	fig7SnapEvery:    50_000,
	alloc3dJobs:      3000,
	alloc3dSnapEvery: 10_000,
	faultJobs:        40_000,
	ckptEvery:        10_000,
	restoreAt:        20,
}

// workload is one input the benchmark runs. setup builds one
// repetition's input and engines; its time is setup_s.
type workload struct {
	name, why string
	setup     func(sz sizes, seed int64) (rep, error)
}

// rep is one set-up repetition of a workload, run once: either untraced
// (the end-to-end pass) or under a tracer (the per-layer pass).
type rep interface {
	run(hw *heapWatch) outcome
	trace(t *tracer) outcome
}

// outcome is what one run simulated and what its checks found.
type outcome struct {
	jobs   int // jobs simulated: the ns_per_job denominator
	digest uint64
	checks []check
	// verify holds checks too costly to repeat; the first repetition of
	// each invocation runs them after its timed part.
	verify func() []check
	notes  []string
}

type check struct {
	name   string
	ok     bool
	detail string
}

func checkErr(name string, err error) check {
	if err != nil {
		return check{name: name, detail: err.Error()}
	}
	return check{name: name, ok: true}
}

// workloads lists the workloads in the order -workload all runs them.
var workloads = []workload{
	{
		name:  "open-poisson",
		why:   "1M-job Poisson stream on 16x16, cheap bin-pack allocation, almost no messages: event loop, scheduler and finish metrics",
		setup: setupPoisson,
	},
	{
		name:  "paper-fig7",
		why:   "the paper's Fig 7 grid (9 allocators x 3 patterns x 5 loads) through core.Fig7: comm, netsim.Send and the sweep pool",
		setup: setupFig7,
	},
	{
		name:  "alloc-3d",
		why:   "SDSC trace on a 16x16x16 mesh under MC and Gen-Alg: allocator scoring dominates",
		setup: setupAlloc3D,
	},
	{
		name:  "faults-ckpt",
		why:   "40k jobs under dense node faults, retries and EASY, snapshot plus audit every 10k events: fault, snap and audit layers",
		setup: setupFaults,
	},
}

// engineDigest folds one engine's outcome into d.
func engineDigest(d digest, e *sim.Engine, res *sim.Result) {
	cs := e.CoreStats()
	d.add(uint64(res.Jobs), math.Float64bits(res.MeanResponse), uint64(res.Net.Messages), uint64(cs.Events+cs.FaultEvents))
}

// conserved checks that every submitted job finished or was given up.
func conserved(res *sim.Result, submitted int) check {
	return check{name: "jobs conserved", ok: res.Jobs+res.GivenUp == submitted,
		detail: fmt.Sprintf("finished %d + given up %d, submitted %d", res.Jobs, res.GivenUp, submitted)}
}

// drained checks a drained engine: no deadlock, and the auditor passes.
func drained(e *sim.Engine) []check {
	c := check{name: "no deadlock", ok: !e.Deadlocked()}
	if !c.ok {
		c.detail = fmt.Sprintf("%d queued, %d running", e.Pending(), e.RunningJobs())
	}
	return []check{c, checkErr("audit", e.Audit())}
}

// markHeap has hw sample the live heap after a quarter, half and three
// quarters of n jobs finish on e; the caller marks the end.
func markHeap(e *sim.Engine, n int, hw *heapWatch) {
	finished := 0
	e.Observe(func(sim.JobRecord) {
		finished++
		if finished == n/4 || finished == n/2 || finished == 3*n/4 {
			hw.mark()
		}
	})
}

// submitAll submits every job of tr to e.
func submitAll(e *sim.Engine, tr *trace.Trace) error {
	for _, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			return err
		}
	}
	return nil
}

// --- open-poisson ---

type poissonRep struct {
	sz  sizes
	cfg sim.Config
	e   *sim.Engine
	src trace.Source
}

func setupPoisson(sz sizes, seed int64) (rep, error) {
	cfg := sim.Config{
		MeshW: 16, MeshH: 16,
		Alloc: "hilbert/bestfit", Pattern: "nbody",
		Seed:          seed,
		MsgsPerSecond: 1e-4,
		KeepRecords:   sim.Discard,
		KeepNodes:     sim.Discard,
	}
	e, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	src := trace.Limit(trace.NewPoisson(1000, 256, seed), sz.poissonJobs)
	return &poissonRep{sz: sz, cfg: cfg, e: e, src: src}, nil
}

func (r *poissonRep) outcome() outcome {
	res := r.e.Result()
	d := newDigest()
	engineDigest(d, r.e, res)
	return outcome{jobs: r.sz.poissonJobs, digest: d.sum(),
		checks: []check{conserved(res, r.sz.poissonJobs), checkErr("audit", r.e.Audit())}}
}

func (r *poissonRep) run(hw *heapWatch) outcome {
	markHeap(r.e, r.sz.poissonJobs, hw)
	err := r.e.RunSource(r.src, 0)
	hw.mark()
	o := r.outcome()
	o.checks = append(o.checks, checkErr("RunSource", err))
	return o
}

// trace feeds the stream one job ahead: RunSource offers no per-event
// hook, so the tracer submits the next job and steps until its arrival
// pops, which replays RunSource's event order.
func (r *poissonRep) trace(t *tracer) outcome {
	t.replayLimit = r.sz.poissonReplay
	t.snapEvery = r.sz.poissonSnapEvery
	l, err := t.observe(r.e, r.cfg)
	if err != nil {
		t.errorf("observe: %v", err)
		return r.outcome()
	}
	start := time.Now()
	var submitted int64
	for {
		g := time.Now()
		j, ok := r.src.Next()
		t.genNs += float64(time.Since(g).Nanoseconds())
		if !ok {
			break
		}
		t.genJobs++
		if err := r.e.Submit(j); err != nil {
			t.errorf("submit: %v", err)
			break
		}
		submitted++
		for r.e.CoreStats().Arrivals < submitted && t.step(r.e, l) {
		}
	}
	for t.step(r.e, l) {
	}
	t.loopNs += float64(time.Since(start).Nanoseconds())
	t.done(r.e, l)
	return r.outcome()
}

// --- paper-fig7 ---

// fig7Patterns and fig7Loads repeat core.Fig7's grid order: patterns
// as listed, allocators as alloc.Specs, loads descending.
var (
	fig7Patterns = []string{"alltoall", "nbody", "random"}
	fig7Loads    = []float64{1.0, 0.8, 0.6, 0.4, 0.2}
)

type fig7Rep struct {
	sz   sizes
	seed int64
	tr   *trace.Trace
	gen  float64 // ns spent generating the trace
	opts core.Options
}

func setupFig7(sz sizes, seed int64) (rep, error) {
	// The same calls core makes for the trace it simulates.
	g := time.Now()
	tr := trace.NewSDSC(trace.SDSCConfig{Jobs: 6087, MaxSize: 352, Seed: seed}).Truncate(sz.fig7Jobs).FilterMaxSize(352)
	gen := float64(time.Since(g).Nanoseconds())
	opts := core.Options{Seed: seed, Jobs: sz.fig7Jobs, Parallelism: runtime.NumCPU()}
	return &fig7Rep{sz: sz, seed: seed, tr: tr, gen: gen, opts: opts}, nil
}

func (r *fig7Rep) cells() int { return len(fig7Patterns) * len(alloc.Specs()) * len(fig7Loads) }

func (r *fig7Rep) outcome(ys []float64) outcome {
	d := newDigest()
	d.add(uint64(len(r.tr.Jobs)))
	for _, y := range ys {
		d.add(math.Float64bits(y))
	}
	return outcome{jobs: len(r.tr.Jobs) * r.cells(), digest: d.sum()}
}

// figureYs flattens a Fig 7 figure's series values in grid order and
// checks its shape.
func (r *fig7Rep) figureYs(fig *core.Figure) ([]float64, check) {
	c := check{name: "figure shape", ok: true}
	var ys []float64
	for _, s := range fig.Series {
		for _, y := range s.Y {
			if !(y > 0) || math.IsInf(y, 0) {
				c.ok, c.detail = false, fmt.Sprintf("series %q has response %v", s.Label, y)
			}
			ys = append(ys, y)
		}
	}
	if len(ys) != r.cells() {
		c.ok, c.detail = false, fmt.Sprintf("%d values, want %d", len(ys), r.cells())
	}
	return ys, c
}

func (r *fig7Rep) run(hw *heapWatch) outcome {
	hw.natural()
	fig, err := core.Fig7(r.opts)
	if err != nil {
		return outcome{jobs: len(r.tr.Jobs) * r.cells(), checks: []check{checkErr("core.Fig7", err)}}
	}
	ys, c := r.figureYs(fig)
	o := r.outcome(ys)
	o.checks = append(o.checks, c)
	return o
}

// trace re-runs every cell of the grid through a Step loop, one cell at
// a time, and checks each mean response against core.Fig7 run on one
// worker, whose wall time is also the sweep's sequential baseline.
func (r *fig7Rep) trace(t *tracer) outcome {
	t.snapEvery = r.sz.fig7SnapEvery
	t.genNs += r.gen
	t.genJobs += len(r.tr.Jobs)

	seq := r.opts
	seq.Parallelism = 1
	s0 := time.Now()
	fig, err := core.Fig7(seq)
	seqNs := float64(time.Since(s0).Nanoseconds())
	if err != nil {
		t.errorf("core.Fig7: %v", err)
		return r.outcome(nil)
	}
	want, c := r.figureYs(fig)
	if !c.ok {
		t.errorf("%s: %s", c.name, c.detail)
		return r.outcome(nil)
	}
	speedup := seqNs / t.baseNs
	t.baseNs = seqNs

	var cellS sampler
	var ys []float64
	mismatched := 0
	for _, p := range fig7Patterns {
		for _, a := range alloc.Specs() {
			for _, load := range fig7Loads {
				cfg := sim.Config{
					MeshW: 16, MeshH: 22,
					Alloc: a, Pattern: p, Load: load,
					TimeScale: 0.02, Seed: r.seed,
				}
				c0 := time.Now()
				e, err := sim.NewEngine(cfg)
				if err != nil {
					t.errorf("cell %s %s %v: %v", p, a, load, err)
					return r.outcome(nil)
				}
				l, err := t.observe(e, cfg)
				if err == nil {
					err = submitAll(e, r.tr)
				}
				if err != nil {
					t.errorf("cell %s %s %v: %v", p, a, load, err)
					return r.outcome(nil)
				}
				for t.step(e, l) {
				}
				cellNs := float64(time.Since(c0).Nanoseconds())
				t.loopNs += cellNs
				cellS.add(cellNs / 1e9)
				res := t.done(e, l)
				if y := res.MeanResponse; math.Float64bits(y) != math.Float64bits(want[len(ys)]) {
					mismatched++
				}
				ys = append(ys, res.MeanResponse)
			}
		}
	}
	o := r.outcome(ys)
	o.checks = append(o.checks, check{name: "traced cells equal core.Fig7", ok: mismatched == 0,
		detail: fmt.Sprintf("%d of %d cells differ", mismatched, len(ys))})

	claims, err := core.Check(r.opts)
	passed := 0
	for _, cl := range claims {
		if cl.Pass {
			passed++
		}
	}
	cs := cellS.summary()
	o.notes = append(o.notes,
		fmt.Sprintf("core.sweep_speedup %.3f (core.Fig7 at 1 worker %.3f s / at %d workers)", speedup, seqNs/1e9, r.opts.Parallelism),
		fmt.Sprintf("core.cell_s p50 %.4f s, p%.0f %.4f s over %d cells", cs.p50, cs.tailP, cs.tail, cs.count),
		fmt.Sprintf("core.claims_passed %d of %d (err %v)", passed, len(claims), err))
	return o
}

// --- alloc-3d ---

type alloc3DRep struct {
	sz      sizes
	n       int
	cfgs    []sim.Config
	engines []*sim.Engine
	gen     float64 // ns spent generating the trace
}

func setupAlloc3D(sz sizes, seed int64) (rep, error) {
	g := time.Now()
	tr := trace.NewSDSC(trace.SDSCConfig{Jobs: sz.alloc3dJobs, MaxSize: 4096, Seed: seed})
	r := &alloc3DRep{sz: sz, n: len(tr.Jobs), gen: float64(time.Since(g).Nanoseconds())}
	for _, spec := range []string{"mc", "genalg"} {
		cfg := sim.Config{
			Dims:  []int{16, 16, 16},
			Alloc: spec, Pattern: "nbody",
			Load: 0.6, TimeScale: 0.02, Seed: seed,
			KeepRecords: sim.Discard, KeepNodes: sim.Discard,
		}
		e, err := sim.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		if err := submitAll(e, tr); err != nil {
			return nil, err
		}
		r.cfgs = append(r.cfgs, cfg)
		r.engines = append(r.engines, e)
	}
	return r, nil
}

func (r *alloc3DRep) outcome() outcome {
	d := newDigest()
	o := outcome{jobs: r.n * len(r.engines)}
	for _, e := range r.engines {
		res := e.Result()
		engineDigest(d, e, res)
		o.checks = append(o.checks, drained(e)...)
		o.checks = append(o.checks, conserved(res, r.n))
	}
	o.digest = d.sum()
	return o
}

func (r *alloc3DRep) run(hw *heapWatch) outcome {
	for _, e := range r.engines {
		markHeap(e, r.n, hw)
		e.Drain()
		hw.mark()
	}
	return r.outcome()
}

func (r *alloc3DRep) trace(t *tracer) outcome {
	t.snapEvery = r.sz.alloc3dSnapEvery
	t.genNs += r.gen
	t.genJobs += r.n
	for i, e := range r.engines {
		l, err := t.observe(e, r.cfgs[i])
		if err != nil {
			t.errorf("observe: %v", err)
			continue
		}
		start := time.Now()
		for t.step(e, l) {
		}
		t.loopNs += float64(time.Since(start).Nanoseconds())
		t.done(e, l)
	}
	return r.outcome()
}

// --- faults-ckpt ---

type faultRep struct {
	sz  sizes
	n   int
	cfg sim.Config
	e   *sim.Engine
	gen float64 // ns spent generating the trace
}

func faultConfig(seed int64) (sim.Config, error) {
	retry, err := fault.ParseRetry("backoff:60,3600,4")
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		MeshW: 16, MeshH: 16,
		Alloc: "hilbert/bestfit", Pattern: "nbody", Scheduler: "easy",
		TimeScale: 0.02, MsgsPerSecond: 0.5,
		Seed:        seed,
		KeepRecords: sim.Discard, KeepNodes: sim.Discard,
		Faults: fault.Config{
			Seed: seed,
			MTBF: fault.Dist{Kind: fault.DistExponential, Mean: 3e5},
			MTTR: fault.Dist{Kind: fault.DistExponential, Mean: 1.5e4},
		},
		Retry: retry,
	}, nil
}

func setupFaults(sz sizes, seed int64) (rep, error) {
	cfg, err := faultConfig(seed)
	if err != nil {
		return nil, err
	}
	g := time.Now()
	tr := trace.NewSDSC(trace.SDSCConfig{Jobs: sz.faultJobs, MaxSize: 128, Seed: seed})
	gen := float64(time.Since(g).Nanoseconds())
	e, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := submitAll(e, tr); err != nil {
		return nil, err
	}
	return &faultRep{sz: sz, n: len(tr.Jobs), cfg: cfg, e: e, gen: gen}, nil
}

func (r *faultRep) outcome() outcome {
	res := r.e.Result()
	d := newDigest()
	engineDigest(d, r.e, res)
	o := outcome{jobs: r.n, digest: d.sum(), checks: drained(r.e)}
	o.checks = append(o.checks, conserved(res, r.n))
	return o
}

// run checkpoints as a crash-safe run would: every ckptEvery events the
// engine is snapshotted to memory and audited. The restoreAt-th
// snapshot is kept for the restore check.
func (r *faultRep) run(hw *heapWatch) outcome {
	markHeap(r.e, r.n, hw)
	var buf bytes.Buffer
	var kept []byte
	var ckptErr error
	taken := 0
	r.e.SetCheckpoint(r.sz.ckptEvery, func() {
		buf.Reset()
		err := r.e.Snapshot(&buf)
		if err == nil {
			err = r.e.Audit()
		}
		if err != nil && ckptErr == nil {
			ckptErr = err
		}
		if taken++; taken == r.sz.restoreAt {
			kept = bytes.Clone(buf.Bytes())
		}
	})
	r.e.Drain()
	hw.mark()
	o := r.outcome()
	o.checks = append(o.checks, checkErr("checkpoints", ckptErr))
	o.verify = func() []check { return []check{r.verifyRestore(kept, taken)} }
	return o
}

// verifyRestore resumes the kept snapshot in a new engine, drains it,
// and compares its result with the uninterrupted run's.
func (r *faultRep) verifyRestore(blob []byte, taken int) check {
	c := check{name: fmt.Sprintf("restore of snapshot %d matches", r.sz.restoreAt)}
	if blob == nil {
		c.detail = fmt.Sprintf("only %d snapshots taken", taken)
		return c
	}
	e, err := sim.RestoreEngine(bytes.NewReader(blob), r.cfg)
	if err != nil {
		c.detail = err.Error()
		return c
	}
	e.Drain()
	got, want := e.Result(), r.e.Result()
	c.ok = got.Jobs == want.Jobs && got.Net == want.Net && got.Killed == want.Killed &&
		math.Float64bits(got.MeanResponse) == math.Float64bits(want.MeanResponse)
	if !c.ok {
		c.detail = fmt.Sprintf("resumed jobs %d kills %d mean %v, uninterrupted jobs %d kills %d mean %v",
			got.Jobs, got.Killed, got.MeanResponse, want.Jobs, want.Killed, want.MeanResponse)
	}
	return c
}

func (r *faultRep) trace(t *tracer) outcome {
	t.genNs += r.gen
	t.genJobs += r.n
	l, err := t.observe(r.e, r.cfg)
	if err != nil {
		t.errorf("observe: %v", err)
		return r.outcome()
	}
	r.e.SetCheckpoint(r.sz.ckptEvery, t.hook(r.e, r.cfg))
	start := time.Now()
	for t.step(r.e, l) {
	}
	t.loopNs += float64(time.Since(start).Nanoseconds())
	t.done(r.e, l)
	return r.outcome()
}
