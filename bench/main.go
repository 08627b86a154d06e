// Command bench is the simulator's benchmark. Each invocation runs one
// workload (or all four) at a seed and prints its end-to-end metrics,
// or with -trace 1 its per-layer metrics, ending with one JSON line:
//
//	bash bench/run.sh -workload open-poisson -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"meshalloc/internal/core"
)

// metric is one printed measurement; samples and pct describe sampled
// timings (pct is the percentile a ".tail" metric reports).
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	pct     float64
}

// result is the last line an invocation prints for a workload.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minSetups is the least number of set-ups whose median is setup_s.
const minSetups = 21

// inputsPerRun is how many inputs one invocation measures. Their seeds
// derive from -seed (see inputSeed), and each end-to-end metric but
// setup_s is the mean over the inputs of the input's median repetition:
// averaging inputs makes a run's numbers depend less on its seed.
const inputsPerRun = 3

// inputSeed is the seed of input i of a run at seed; input 0 uses seed
// itself.
func inputSeed(seed int64, i int) int64 { return core.RepSeed(seed, i) }

func meanOfMedians(perInput [inputsPerRun][]float64) float64 {
	sum := 0.0
	for _, xs := range perInput {
		sum += median(xs)
	}
	return sum / inputsPerRun
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Int64("seed", 0, "input seed, positive")
		seconds = flag.Float64("seconds", 10, "seconds the untraced pass measures (each input runs at least once)")
		traced  = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics; 0 prints end-to-end metrics")
	)
	flag.Parse()
	ws, err := selectWorkloads(*name)
	if err == nil && *seed <= 0 {
		err = fmt.Errorf("-seed must be positive, got %d", *seed)
	}
	if err == nil && !(*seconds > 0) {
		err = fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if err == nil && flag.NArg() > 0 {
		err = fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("host go=%s os=%s/%s gomaxprocs=%d numcpu=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, w := range ws {
		res, err := measure(os.Stdout, w, fullSizes, *seed, *seconds, *traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown -workload %q (valid -workload values: %s, all)", name, strings.Join(workloadNames(), ", "))
}

// tally accumulates the checks of every run of an invocation.
type tally struct {
	attempted, failed int
	correct           bool
}

// record prints o's checks and counts its jobs; a run with any failed
// check counts all of its jobs as failed.
func (t *tally) record(out io.Writer, label string, o outcome) {
	ok := true
	for _, c := range o.checks {
		mark := "ok"
		if !c.ok {
			mark, ok = "FAIL", false
		}
		fmt.Fprintf(out, "  check %-8s %s %s %s\n", label, mark, c.name, c.detail)
	}
	t.attempted += o.jobs
	if !ok {
		t.failed += o.jobs
		t.correct = false
	}
}

// measure runs one workload and returns its result line.
func measure(out io.Writer, w workload, sz sizes, seed int64, seconds float64, traced bool) (result, error) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "workload %s seed %d %s: %s\n", w.name, seed, mode, w.why)
	tl := &tally{correct: true}
	// refs are the host reference kernel's times (see refSeconds), one
	// before each set-up.
	var setups, refs []float64
	// Per input: wall seconds, ns/job, B/job and live heap MB of each of
	// its repetitions.
	var walls, nsPerJob, bytesPerJob, heapMB [inputsPerRun][]float64
	var digests [inputsPerRun]uint64

	// The untraced pass: repetitions cycle over the run's inputs, at least
	// one each, until the timed part reaches -seconds; with -trace 1 a
	// single one on the first input, which the traced pass is checked and
	// timed against.
	measured := 0.0
	more := func(i int) bool {
		if traced {
			return i < 1
		}
		return i < inputsPerRun || measured < seconds
	}
	for i := 0; more(i); i++ {
		in := i % inputsPerRun
		refs = append(refs, refSeconds())
		runtime.GC()
		t0 := time.Now()
		r, err := w.setup(sz, inputSeed(seed, in))
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())

		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		hw := &heapWatch{}
		t1 := time.Now()
		o := r.run(hw)
		wall := time.Since(t1).Seconds()
		peak := hw.stop()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(r)
		measured += wall

		if i == 0 && o.verify != nil {
			o.checks = append(o.checks, o.verify()...)
		}
		if i < inputsPerRun {
			digests[in] = o.digest
		} else if o.digest != digests[in] {
			o.checks = append(o.checks, check{name: "digest repeats",
				detail: fmt.Sprintf("%016x, first repetition of input %d %016x", o.digest, in+1, digests[in])})
		}
		tl.record(out, fmt.Sprintf("rep%d", i+1), o)
		ns := wall * 1e9 / float64(o.jobs)
		b := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(o.jobs)
		mb := float64(peak) / (1 << 20)
		walls[in] = append(walls[in], wall)
		nsPerJob[in] = append(nsPerJob[in], ns)
		bytesPerJob[in] = append(bytesPerJob[in], b)
		heapMB[in] = append(heapMB[in], mb)
		fmt.Fprintf(out, "  rep %d input %d: setup %.6f s, wall %.4f s, %.1f ns/job, %.1f B/job, live heap %.3f MB, digest %016x\n",
			i+1, in+1, setups[i], wall, ns, b, mb, o.digest)
	}

	var ms []metric
	if !traced {
		for i := len(setups); i < minSetups; i++ {
			refs = append(refs, refSeconds())
			runtime.GC()
			t0 := time.Now()
			if _, err := w.setup(sz, inputSeed(seed, i%inputsPerRun)); err != nil {
				return result{}, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		reps := 0
		for in := range walls {
			reps += len(walls[in])
			fmt.Fprintf(out, "  input %d walls %s s\n", in+1, joinFloats(walls[in]))
		}
		// Host-time metrics are scaled to the recording host's speed.
		ref := median(refs)
		scale := refNominal / ref
		fmt.Fprintf(out, "  host reference %.3f ms (nominal %.3f ms over %d samples): times scaled by %.4f; unscaled setup %.6g s, wall %.6g s\n",
			ref*1e3, refNominal*1e3, len(refs), scale, median(setups), meanOfMedians(walls))
		ms = []metric{
			{name: "setup_s", value: median(setups) * scale, unit: "s", samples: len(setups)},
			{name: "wall_s", value: meanOfMedians(walls) * scale, unit: "s", samples: reps},
			{name: "ns_per_job", value: meanOfMedians(nsPerJob) * scale, unit: "ns", samples: reps},
			{name: "bytes_per_job", value: meanOfMedians(bytesPerJob), unit: "B", samples: reps},
			{name: "live_heap_mb", value: meanOfMedians(heapMB), unit: "MB", samples: reps},
		}
	} else {
		r, err := w.setup(sz, seed)
		if err != nil {
			return result{}, err
		}
		t := &tracer{baseNs: walls[0][0] * 1e9, restoreAt: sz.restoreAt}
		o := r.trace(t)
		t.restore()
		for _, e := range t.errs {
			o.checks = append(o.checks, check{name: "traced pass", detail: e})
		}
		o.checks = append(o.checks,
			check{name: "traced digest equals untraced", ok: o.digest == digests[0],
				detail: fmt.Sprintf("%016x vs %016x", o.digest, digests[0])},
			check{name: "alloc replay matches", ok: t.mismatch == 0,
				detail: fmt.Sprintf("%d mismatched allocations", t.mismatch)})
		tl.record(out, "traced", o)
		for _, n := range append(o.notes, t.notes()...) {
			fmt.Fprintf(out, "  note %s\n", n)
		}
		ms = t.metrics()
	}
	fmt.Fprintf(out, "  digest %016x\n", digests[0])
	res := result{Correct: tl.correct, Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]metricOutput{}}
	for _, m := range ms {
		detail := ""
		switch {
		case m.pct > 0:
			detail = fmt.Sprintf(" (p%.0f of %d samples)", m.pct, m.samples)
		case m.samples > 0:
			detail = fmt.Sprintf(" (%d samples)", m.samples)
		}
		fmt.Fprintf(out, "  metric %-28s %.6g %s%s\n", m.name, m.value, m.unit, detail)
		res.Metrics[m.name] = metricOutput{Value: m.value, Unit: m.unit}
	}
	fmt.Fprintf(out, "  failed_pct %.4g\n", 100*float64(tl.failed)/float64(tl.attempted))
	return res, nil
}

func joinFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(s, " ")
}
