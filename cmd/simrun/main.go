// Command simrun executes a single allocation/pattern simulation and
// prints the summary metrics: mean/median response time, contiguity,
// and network statistics. The workload is a closed-system replay of a
// synthetic SDSC Paragon trace (or a trace file), or — with -arrival —
// an open-system stream whose per-job records stream out as NDJSON and
// whose aggregates come from the engine's constant-memory streaming
// statistics.
//
// Example:
//
//	simrun -mesh 16x22 -alloc hilbert/bestfit -pattern nbody -load 0.6
//	simrun -mesh 8x8x8 -alloc hilbert/bestfit -pattern nbody      # native 3-D
//	simrun -mesh 16x16 -arrival poisson:900 -duration 1e6 -stream  # open system
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"meshalloc/internal/alloc"
	"meshalloc/internal/curve"
	"meshalloc/internal/fault"
	"meshalloc/internal/metrics"
	"meshalloc/internal/netsim"
	"meshalloc/internal/sched"
	"meshalloc/internal/sim"
	"meshalloc/internal/snap"
	"meshalloc/internal/topo"
	"meshalloc/internal/trace"
)

func main() {
	var (
		meshSpec  = flag.String("mesh", "16x22", "mesh dimensions, e.g. 16x22 or 8x8x8")
		allocSpec = flag.String("alloc", "hilbert/bestfit", "allocator spec (e.g. mc, mc1x1, genalg, hilbert/bestfit, scurve)")
		pattern   = flag.String("pattern", "alltoall", "communication pattern (alltoall, nbody, random, ring, pingpong, testsuite)")
		load      = flag.Float64("load", 1.0, "arrival contraction factor (1 down to 0.2)")
		timeScale = flag.Float64("timescale", 0.02, "trace time contraction for tractability")
		jobs      = flag.Int("jobs", 6087, "number of synthetic trace jobs (also caps open-system streams)")
		seed      = flag.Int64("seed", 1, "random seed")
		scheduler = flag.String("sched", "fcfs", "scheduling policy (fcfs, easy or sjf)")
		issue     = flag.String("issue", "phased", "message issue mode (phased or sequential)")
		routing   = flag.String("routing", "xy", "network routing (xy, yx, adaptive)")
		torus     = flag.Bool("torus", false, "wraparound (torus) links")
		traceFile = flag.String("trace", "", "replay a trace file instead of synthesizing one")
		swf       = flag.Bool("swf", false, "parse -trace as Standard Workload Format")
		swfLoose  = flag.Bool("swf-lenient", false, "with -swf: skip malformed lines (reported to stderr) instead of aborting")
		verbose   = flag.Bool("v", false, "print per-job records")
		heatmap   = flag.Bool("heatmap", false, "print a node-level link-utilization heatmap")
		disperse  = flag.Bool("dispersal", false, "print aggregate dispersal metrics of the allocations")
		stream    = flag.Bool("stream", false, "stream per-job records as NDJSON to stdout (summary goes to stderr); records are not retained")
		arrival   = flag.String("arrival", "", "open-system arrival process: poisson:MEANSEC or bursty:MEANSEC,ONSEC,OFFSEC (empty = closed trace replay)")
		duration  = flag.Float64("duration", 0, "open-system horizon in trace seconds (0 = run until the -jobs cap)")
		mtbf      = flag.String("mtbf", "", "per-node mean time between failures: MEANSEC, exp:MEANSEC or weibull:MEANSEC,SHAPE (trace seconds; empty = no failures)")
		mttr      = flag.String("mttr", "", "per-node mean time to repair, same forms as -mtbf (empty with -mtbf = permanent failures)")
		retrySpec = flag.String("retry", "", "retry policy for killed jobs: none, immediate[:MAXATTEMPTS] or backoff:BASESEC,CAPSEC[,MAXATTEMPTS] (empty = immediate, unlimited)")
		ckptPath  = flag.String("checkpoint", "", "write a resumable checkpoint to this file every -checkpoint-every events (atomic replace)")
		ckptEvery = flag.Int64("checkpoint-every", 0, "events between checkpoints (requires -checkpoint)")
		resume    = flag.String("resume", "", "resume from a -checkpoint file; pass the same configuration flags as the original run")
		auditEv   = flag.Int("audit-every", 0, "run the engine invariant auditor every N events (0 = audit only at end of run)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this file")
		memProf   = flag.String("memprofile", "", "write a pprof allocation profile (after the run) to this file")
	)
	flag.Parse()

	dims, err := topo.ParseDims(*meshSpec)
	if err != nil {
		fatal(err)
	}
	size := 1
	for _, d := range dims {
		size *= d
	}

	// sim.Config would read an explicit 0 as its default rate of 1.
	if !(*load > 0) || math.IsInf(*load, 1) {
		fatal(fmt.Errorf("-load: Load must be positive and finite (got %v)", *load))
	}
	if !(*timeScale > 0) || math.IsInf(*timeScale, 1) {
		fatal(fmt.Errorf("-timescale: TimeScale must be positive and finite (got %v)", *timeScale))
	}

	// Reject a typo'd -alloc or -sched up front with a usage error that
	// lists the valid names, before any trace is synthesized or replayed:
	// in sweep scripts a late failure (or a silently defaulted value)
	// masks the typo.
	if _, err := alloc.Spec(topo.New(dims), *allocSpec, *seed); err != nil {
		fatal(fmt.Errorf("%v\n%s", err, allocUsage()))
	}
	if _, err := sched.ByName(*scheduler); err != nil {
		fatal(fmt.Errorf("%v (valid -sched values: fcfs, easy, sjf)", err))
	}
	if *jobs < 1 {
		fatal(fmt.Errorf("-jobs must be >= 1 (got %d)", *jobs))
	}

	// Durability flags fail fast before any workload is built: a typo'd
	// checkpoint cadence must not surface hours into a sweep.
	if *auditEv < 0 {
		fatal(fmt.Errorf("-audit-every must be >= 0 (got %d)", *auditEv))
	}
	if *ckptEvery < 0 {
		fatal(fmt.Errorf("-checkpoint-every must be > 0 (got %d)", *ckptEvery))
	}
	if (*ckptPath != "") != (*ckptEvery > 0) {
		fatal(fmt.Errorf("-checkpoint and -checkpoint-every must be used together"))
	}
	if *resume != "" && *traceFile != "" {
		fatal(fmt.Errorf("-resume restores the workload from the checkpoint; drop -trace"))
	}

	cfg := sim.Config{
		Dims:       dims,
		Torus:      *torus,
		Alloc:      *allocSpec,
		Pattern:    *pattern,
		Load:       *load,
		TimeScale:  *timeScale,
		Seed:       *seed,
		Scheduler:  *scheduler,
		AuditEvery: *auditEv,
	}
	if *issue == "sequential" {
		cfg.Issue = sim.IssueSequential
	} else if *issue != "phased" {
		fatal(fmt.Errorf("unknown issue mode %q", *issue))
	}

	// Fault flags fail fast at parse time — a malformed -mtbf in a
	// sweep script must die before hours of simulation, not after.
	cfg.Faults.MTBF, err = fault.ParseDist(*mtbf)
	if err != nil {
		fatal(fmt.Errorf("-mtbf: %v", err))
	}
	cfg.Faults.MTTR, err = fault.ParseDist(*mttr)
	if err != nil {
		fatal(fmt.Errorf("-mttr: %v", err))
	}
	if cfg.Faults.MTTR.Enabled() && !cfg.Faults.MTBF.Enabled() {
		fatal(fmt.Errorf("-mttr without -mtbf: nothing ever fails"))
	}
	cfg.Retry, err = fault.ParseRetry(*retrySpec)
	if err != nil {
		fatal(fmt.Errorf("-retry: %v", err))
	}
	route, err := netsim.RoutingByName(*routing)
	if err != nil {
		fatal(err)
	}
	cfg.Net = netsim.DefaultConfig()
	cfg.Net.Routing = route

	// Streaming and open-system runs discard records, so an open run
	// holds constant memory however many jobs pass through; the
	// per-record reports need the retained slice. Node lists stay on
	// (the per-record copies are transient), so -stream emits the same
	// NDJSON schema in open and closed mode. A resumed run makes the
	// same choice as the run it resumes, so the fingerprints match.
	if *stream || *arrival != "" {
		if *verbose || *disperse {
			fatal(fmt.Errorf("-v and -dispersal need retained records; drop -stream/-arrival"))
		}
		cfg.KeepRecords = sim.Discard
	}

	// Profile files are created (and the CPU profile started) before the
	// workload is built, so an unwritable path dies in milliseconds, not
	// after the simulation. Trace synthesis is inside the profiled span:
	// for large open-system runs it is part of the event loop's cost.
	stopCPU := func() {}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(fmt.Errorf("-cpuprofile: %v", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("-cpuprofile: %v", err))
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(fmt.Errorf("-cpuprofile: %v", err))
			}
		}
	}

	ck := ckptSpec{path: *ckptPath, every: *ckptEvery, jobs: *jobs, duration: *duration}
	var res *sim.Result
	var eng *sim.Engine
	if *resume != "" {
		res, eng, err = runResume(cfg, *resume, *arrival, size, *seed, *jobs, *duration, *stream, ck)
	} else if *arrival != "" {
		if *traceFile != "" {
			fatal(fmt.Errorf("-arrival generates its own workload; drop -trace"))
		}
		res, eng, err = runOpen(cfg, *arrival, size, *seed, *jobs, *duration, *stream, ck)
	} else {
		var tr *trace.Trace
		if *traceFile != "" {
			f, oerr := os.Open(*traceFile)
			if oerr != nil {
				fatal(oerr)
			}
			if *swf && *swfLoose {
				var skips []trace.SWFSkip
				tr, skips, err = trace.ReadSWFLenient(f)
				for _, s := range skips {
					fmt.Fprintf(os.Stderr, "simrun: %s: swf %s\n", *traceFile, s)
				}
			} else if *swf {
				tr, err = trace.ReadSWF(f)
			} else {
				tr, err = trace.Read(f)
			}
			f.Close()
			if err != nil {
				fatal(err)
			}
		} else {
			tr = trace.NewSDSC(trace.SDSCConfig{Jobs: *jobs, MaxSize: size, Seed: *seed})
		}
		res, eng, err = runClosed(cfg, tr.FilterMaxSize(size), *stream, ck)
	}
	if err != nil {
		fatal(err)
	}
	stopCPU()
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(fmt.Errorf("-memprofile: %v", err))
		}
		runtime.GC() // report live objects, not dead garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(fmt.Errorf("-memprofile: %v", err))
		}
		if err := f.Close(); err != nil {
			fatal(fmt.Errorf("-memprofile: %v", err))
		}
	}

	// With -stream, stdout carries the NDJSON records; the summary
	// moves to stderr so the record stream stays machine-readable.
	sum := os.Stdout
	if *stream {
		sum = os.Stderr
	}
	fmt.Fprintf(sum, "mesh %s  alloc %-18s pattern %-9s load %.2f  jobs %d\n",
		*meshSpec, *allocSpec, *pattern, *load, res.Jobs)
	fmt.Fprintf(sum, "mean response    %14.0f s\n", res.MeanResponse)
	// Without retained records the median is the P² streaming estimate
	// (coarse on short heavy-tailed runs); say so.
	if res.Records == nil {
		fmt.Fprintf(sum, "median response  %14.0f s (P² estimate)\n", res.MedianResponse)
	} else {
		fmt.Fprintf(sum, "median response  %14.0f s\n", res.MedianResponse)
	}
	fmt.Fprintf(sum, "makespan         %14.0f s\n", res.Makespan)
	fmt.Fprintf(sum, "contiguous       %13.1f %%   avg components %.2f\n", res.PctContiguous, res.AvgComponents)
	fmt.Fprintf(sum, "network: %d messages, avg %.2f hops, avg latency %.3f s (scaled)\n",
		res.Net.Messages, res.Net.AvgHops(), res.Net.AvgLatency())
	if cfg.Faults.Enabled() {
		fmt.Fprintf(sum, "faults: %d kills, %d retries, %d given up\n",
			res.Killed, res.Retried, res.GivenUp)
		fmt.Fprintf(sum, "goodput          %13.1f %%   wasted %.2f %%   down %.2f %%\n",
			res.GoodputPct, res.WastedPct, res.DownPct)
	}

	// Profiling runs also print the event-core counters, so a profile
	// can be read per event and per scheduler round.
	if *cpuProf != "" || *memProf != "" {
		cs := eng.CoreStats()
		fmt.Fprintf(os.Stderr, "event core: %d events (%d arrivals, %d steps, %d finishes), %d fault events\n",
			cs.Events, cs.Arrivals, cs.Steps, cs.Finishes, cs.FaultEvents)
		fmt.Fprintf(os.Stderr, "scheduler: %d rounds, %d head-blocked skips\n", cs.SchedRounds, cs.SchedSkips)
	}

	if *heatmap {
		if len(dims) != 2 {
			fatal(fmt.Errorf("-heatmap renders 2-D meshes only (got %s)", *meshSpec))
		}
		fmt.Fprintln(sum, "\nlink-utilization heatmap (0-9 per node, '.' = idle):")
		fmt.Fprint(sum, renderHeatmap(res.NodeUtilization, dims[0], dims[1]))
	}

	if *disperse {
		if len(dims) != 2 {
			fatal(fmt.Errorf("-dispersal supports 2-D meshes only (got %s)", *meshSpec))
		}
		var m *topo.Grid
		if *torus {
			m = topo.NewTorus(dims)
		} else {
			m = topo.New(dims)
		}
		ms := make([]metrics.Dispersal, len(res.Records))
		sizes := make([]int, len(res.Records))
		for i, r := range res.Records {
			ms[i] = metrics.Measure(m, r.Nodes)
			sizes[i] = r.Size
		}
		s := metrics.Summarize(ms, sizes)
		fmt.Printf("\ndispersal over %d allocations:\n", s.N)
		fmt.Printf("  mean avg pairwise distance  %6.2f hops\n", s.MeanAvgPairwise)
		fmt.Printf("  mean bounding-box fill      %6.2f\n", s.MeanBoundingFill)
		fmt.Printf("  mean perimeter ratio        %6.2f (1.0 = ideal square)\n", s.MeanPerimeterRatio)
		fmt.Printf("  mean components             %6.2f\n", s.MeanComponents)
		fmt.Printf("  contiguous                  %6.1f %%\n", s.PctContiguous)
	}

	if *verbose {
		fmt.Println("\n  id  size     quota     response      runtime  pairwise  msgdist comps")
		for _, r := range res.Records {
			fmt.Printf("%4d  %4d  %8d  %11.0f  %11.0f  %8.2f  %7.2f  %4d\n",
				r.ID, r.Size, r.Quota, r.Response, r.RunTime, r.AvgPairwise, r.AvgMsgDist, r.Components)
		}
	}
}

// runOpen simulates an open-system workload: arrivals from the spec'd
// process, pulled into the engine as the clock reaches them. The stream
// ends at the horizon (trace seconds) or the jobs cap, whichever comes
// first.
func runOpen(cfg sim.Config, spec string, maxSize int, seed int64, jobs int, horizon float64, stream bool, ck ckptSpec) (*sim.Result, *sim.Engine, error) {
	src, err := trace.ParseArrival(spec, maxSize, seed)
	if err != nil {
		return nil, nil, err
	}
	e, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	return run(e, trace.Limit(src, jobs), horizon, stream, ck)
}

// runClosed is sim.Run with the engine handle kept, so the profiling
// report can read the event-core counters. Submission order, event
// processing and the closing Complete match sim.Run exactly. With stream
// set, every record goes out as NDJSON and the summary comes from the
// engine's streaming aggregates; even event-time ties resolve as
// without it, so -stream changes the output format only.
func runClosed(cfg sim.Config, tr *trace.Trace, stream bool, ck ckptSpec) (*sim.Result, *sim.Engine, error) {
	e, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			return nil, nil, err
		}
	}
	return run(e, nil, 0, stream, ck)
}

// run finishes a run on e, built or restored, for every mode: it
// streams records as NDJSON if asked, arms checkpoints, pumps src, the
// open-system source (nil for a closed run, whose arrivals are already
// engine events), up to the horizon, and completes the run. A horizon
// stop leaves in-flight jobs pending, and Complete lets them finish so
// the summary covers every admitted job.
func run(e *sim.Engine, src trace.Source, horizon float64, stream bool, ck ckptSpec) (*sim.Result, *sim.Engine, error) {
	flush := func() {}
	if stream {
		flush = observeNDJSON(e)
	}
	armCheckpoint(e, src, ck)
	if src != nil {
		if err := e.RunSource(src, horizon); err != nil {
			return nil, nil, err
		}
	}
	if err := e.Complete(); err != nil {
		return nil, nil, err
	}
	flush()
	return e.Result(), e, nil
}

// ckptSpec carries the -checkpoint flags: where to write and how many
// events between writes; an empty path disables checkpointing. jobs and
// duration are the run's -jobs and -duration, which every checkpoint
// records so that a resume under others fails.
type ckptSpec struct {
	path     string
	every    int64
	jobs     int
	duration float64
}

// armCheckpoint hooks the engine's periodic checkpoint callback to
// write ck.path atomically every ck.every events. src is the live
// open-system source whose position rides along in the file (nil for
// closed-system runs, whose arrivals are already engine events). Every
// checkpoint of the run is encoded in one buffer. A checkpoint that
// cannot be written aborts the run: continuing would silently drop the
// durability the user asked for.
func armCheckpoint(e *sim.Engine, src trace.Source, ck ckptSpec) {
	if ck.path == "" {
		return
	}
	var buf []byte
	e.SetCheckpoint(ck.every, func() {
		var err error
		if buf, err = writeCheckpoint(ck, buf[:0], e, src); err != nil {
			fatal(fmt.Errorf("-checkpoint: %v", err))
		}
	})
}

// writeCheckpoint serializes the engine, for open systems the arrival
// source's state, and the run's -jobs and -duration into a snap
// container at ck.path, and returns buf extended by the container, for
// the next checkpoint to reuse. The engine's own container is appended
// in place inside the outer one, so the checkpoint is encoded once and
// written in one call. The file is staged as path.tmp, synced, and
// renamed into place, and the directory is synced after the rename, so
// neither a kill nor a power loss mid-write can replace the previous
// good checkpoint with a partial one. On any failure the temp file is
// removed.
func writeCheckpoint(ck ckptSpec, buf []byte, e *sim.Engine, src trace.Source) ([]byte, error) {
	w := snap.NewWriter(buf)
	if err := w.BytesFrom(e); err != nil {
		return buf, err
	}
	w.Bool(src != nil)
	if src != nil {
		// simrun's sources are Limit around ParseArrival's, which all
		// encode themselves.
		src.(snap.Codec).AppendState(w)
	}
	w.Int(ck.jobs)
	w.F64(ck.duration)
	buf = w.Finish()
	tmp := ck.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return buf, err
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, ck.path)
	}
	if err != nil {
		return buf, errors.Join(err, os.Remove(tmp))
	}
	return buf, syncDir(filepath.Dir(ck.path))
}

// syncDir flushes a directory's entries to stable storage, making a
// rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// runResume restores a checkpoint written by -checkpoint and finishes
// the run. Closed-system checkpoints carry every pending arrival as
// engine events, so the trace is not re-read; open-system checkpoints
// also hold the arrival source's state, which is read into the source
// the -arrival spec and -jobs build. That fails unless the spec names
// the process and parameters the checkpointed run used, as the engine's
// restore fails under another configuration. The -jobs and -duration
// the checkpoint records must be the ones passed, and a checkpoint that
// records neither fails.
func runResume(cfg sim.Config, path, arrivalSpec string, maxSize int, seed int64, jobs int, horizon float64, stream bool, ck ckptSpec) (*sim.Result, *sim.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := snap.NewReader(f)
	f.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("-resume %s: %v", path, err)
	}
	blob := r.Bytes()
	hasSrc := r.Bool()
	if r.Err() != nil {
		return nil, nil, fmt.Errorf("-resume %s: %v", path, r.Err())
	}
	if hasSrc && arrivalSpec == "" {
		return nil, nil, fmt.Errorf("-resume %s: checkpoint holds an open-system source; pass the original -arrival spec", path)
	}
	if !hasSrc && arrivalSpec != "" {
		return nil, nil, fmt.Errorf("-resume %s: checkpoint is a closed-system run; drop -arrival", path)
	}
	var src trace.Source
	if hasSrc {
		arr, err := trace.ParseArrival(arrivalSpec, maxSize, seed)
		if err != nil {
			return nil, nil, err
		}
		src = trace.Limit(arr, jobs)
		if err := src.(snap.Codec).ReadState(r); err != nil {
			return nil, nil, fmt.Errorf("-resume %s: %v", path, err)
		}
	}
	// The run flags come last, so a file written before they were
	// recorded ends before them instead of resuming under others.
	ckJobs, ckDuration := r.Int(), r.F64()
	switch {
	case r.Err() != nil:
		return nil, nil, fmt.Errorf("-resume %s: checkpoint records no -jobs and -duration: %v", path, r.Err())
	case ckJobs != jobs:
		return nil, nil, fmt.Errorf("-resume %s: checkpoint was written under -jobs %d, not %d", path, ckJobs, jobs)
	case ckDuration != horizon:
		return nil, nil, fmt.Errorf("-resume %s: checkpoint was written under -duration %g, not %g", path, ckDuration, horizon)
	}
	if n := r.Remaining(); n != 0 {
		return nil, nil, fmt.Errorf("-resume %s: %d trailing bytes after checkpoint payload", path, n)
	}
	e, err := sim.RestoreEngine(bytes.NewReader(blob), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("-resume %s: %v", path, err)
	}
	return run(e, src, horizon, stream, ck)
}

// observeNDJSON attaches an observer encoding each record as one JSON
// line on stdout and returns the buffer flush.
func observeNDJSON(e *sim.Engine) (flush func()) {
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	e.Observe(func(r sim.JobRecord) {
		if err := enc.Encode(r); err != nil {
			fatal(err)
		}
	})
	return func() {
		if err := w.Flush(); err != nil {
			fatal(err)
		}
	}
}

// renderHeatmap draws per-node utilization as digit intensities.
func renderHeatmap(util []float64, w, h int) string {
	max := 0.0
	for _, u := range util {
		if u > max {
			max = u
		}
	}
	var b strings.Builder
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := util[y*w+x]
			switch {
			case u == 0 || max == 0:
				b.WriteByte('.')
			default:
				level := int(u / max * 9)
				if level > 9 {
					level = 9
				}
				b.WriteByte(byte('0' + level))
			}
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// allocUsage lists the valid -alloc spec forms and the registry names
// they can be built from, so a rejected spec is a one-stop fix.
func allocUsage() string {
	return fmt.Sprintf(`valid -alloc forms:
  mc | mc1x1 | genalg | random | submesh | buddy
  <curve>                       Paging with a sorted free list
  <curve>/<strategy>            Paging with a bin-packing strategy
  <curve>/<strategy>/page<s>    Lo et al.'s Paging with 2^s-sided pages
curves: %s, optcurve, or proj2d-<curve> (2-D projection on n-D grids)
strategies: freelist, firstfit, bestfit, sumofsquares, worstfit, nextfit`,
		strings.Join(curve.All(), ", "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simrun:", err)
	os.Exit(1)
}
