// Package trace models the batch workload driving the simulation: the job
// stream of the 352-node NQS partition of the SDSC Intel Paragon
// (October-December 1996) that the paper replays.
//
// The original trace is not redistributable, so NewSDSC synthesizes a
// trace fitted to the published statistics: 6087 jobs, mean interarrival
// time 1301 s with coefficient of variation 3.7, mean size 14.5 nodes
// with CV 1.5 and a strong bias toward powers of two, and mean runtime
// 3.04 h with CV 1.13. A plain-text reader and writer let a real trace be
// substituted.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"meshalloc/internal/stats"
)

// Job is one batch job: it arrives, waits for Size processors, and runs a
// communication workload derived from Runtime (one message per second of
// traced runtime, per the paper).
type Job struct {
	// ID is the job's position in the trace.
	ID int
	// Arrival is the submission time in seconds from trace start.
	Arrival float64
	// Size is the number of processors requested.
	Size int
	// Runtime is the traced runtime in seconds, which sets the job's
	// message quota.
	Runtime float64
}

// Trace is an arrival-ordered job stream.
type Trace struct {
	Jobs []Job
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	return &Trace{Jobs: append([]Job(nil), t.Jobs...)}
}

// FilterMaxSize drops jobs larger than maxSize, renumbering IDs — the
// paper removes the three 320-node jobs when moving from the 16x22 to the
// 16x16 mesh.
func (t *Trace) FilterMaxSize(maxSize int) *Trace {
	out := &Trace{Jobs: make([]Job, 0, len(t.Jobs))}
	for _, j := range t.Jobs {
		if j.Size <= maxSize {
			j.ID = len(out.Jobs)
			out.Jobs = append(out.Jobs, j)
		}
	}
	return out
}

// Truncate keeps the first n jobs (all jobs when n exceeds the length).
func (t *Trace) Truncate(n int) *Trace {
	out := t.Clone()
	if n < len(out.Jobs) {
		out.Jobs = out.Jobs[:n]
	}
	return out
}

// Summary holds the descriptive statistics the paper reports for the
// SDSC trace.
type Summary struct {
	Jobs             int
	MeanInterarrival float64
	CVInterarrival   float64
	MeanSize         float64
	CVSize           float64
	MeanRuntime      float64
	CVRuntime        float64
	MaxSize          int
}

// Summarize computes the trace's summary statistics.
func (t *Trace) Summarize() Summary {
	s := Summary{Jobs: len(t.Jobs)}
	if len(t.Jobs) == 0 {
		return s
	}
	var inter, sizes, runtimes []float64
	for i, j := range t.Jobs {
		if i > 0 {
			inter = append(inter, j.Arrival-t.Jobs[i-1].Arrival)
		}
		sizes = append(sizes, float64(j.Size))
		runtimes = append(runtimes, j.Runtime)
		if j.Size > s.MaxSize {
			s.MaxSize = j.Size
		}
	}
	s.MeanInterarrival = stats.Mean(inter)
	s.CVInterarrival = stats.CV(inter)
	s.MeanSize = stats.Mean(sizes)
	s.CVSize = stats.CV(sizes)
	s.MeanRuntime = stats.Mean(runtimes)
	s.CVRuntime = stats.CV(runtimes)
	return s
}

// SDSCConfig parameterizes the synthetic SDSC Paragon workload.
type SDSCConfig struct {
	// Jobs is the number of jobs to generate (paper: 6087).
	Jobs int
	// MaxSize caps job sizes at the machine size (paper: 352).
	MaxSize int
	// Seed drives all sampling.
	Seed int64
}

// sdscSizeDist is the job-size distribution fitted numerically to the
// published moments (mean 14.5, CV 1.5) with the power-of-two bias the
// paper describes. Powers of two carry ~85% of the probability mass.
func sdscSizeDist() *stats.DiscreteDist {
	values := []int{
		1, 2, 4, 8, 16, 32, 64, 128, 256, // powers of two
		3, 5, 6, 10, 12, 20, 24, 48, 96, 200, 320, // other observed sizes
	}
	weights := []float64{
		0.150, 0.140, 0.170, 0.190, 0.140, 0.130, 0.050, 0.012, 0.0005,
		0.010, 0.008, 0.008, 0.007, 0.007, 0.005, 0.004, 0.003, 0.002, 0.0003, 0.0003,
	}
	return stats.NewDiscreteDist(values, weights)
}

// sdscRuntimeDist is the runtime distribution fitted to the published
// moments (mean 3.04 h, CV 1.13).
func sdscRuntimeDist() stats.Lognormal { return stats.NewLognormal(10944, 1.13) }

// sampleSDSCJob draws one job's size and runtime from the SDSC-fitted
// distributions, capping sizes at maxSize (0 = uncapped) and clamping
// runtimes to [30 s, 48 h], the span of a production NQS queue. Shared
// by the closed-trace synthesizer and the open-system sources so the
// two workload shapes can never drift apart.
func sampleSDSCJob(rng *stats.RNG, sizes *stats.DiscreteDist, runtimes stats.Lognormal, maxSize int) (size int, run float64) {
	size = sizes.SampleInt(rng)
	if maxSize > 0 && size > maxSize {
		size = maxSize
	}
	run = runtimes.Sample(rng)
	if run < 30 {
		run = 30
	}
	if run > 172800 {
		run = 172800
	}
	return size, run
}

// NewSDSC synthesizes a trace with the SDSC Paragon's published
// statistics.
func NewSDSC(cfg SDSCConfig) *Trace {
	if cfg.Jobs <= 0 {
		panic(fmt.Sprintf("trace: invalid job count %d", cfg.Jobs))
	}
	rng := stats.NewRNG(cfg.Seed)
	inter := stats.NewHyperExp2(1301, 3.7)
	sizes := sdscSizeDist()
	runtimes := sdscRuntimeDist()

	t := &Trace{Jobs: make([]Job, 0, cfg.Jobs)}
	now := 0.0
	for i := 0; i < cfg.Jobs; i++ {
		now += inter.Sample(rng)
		size, run := sampleSDSCJob(rng, sizes, runtimes, cfg.MaxSize)
		t.Jobs = append(t.Jobs, Job{ID: i, Arrival: now, Size: size, Runtime: run})
	}
	return t
}

// Write emits the trace in a plain-text format: one "arrival size
// runtime" line per job, '#' comments allowed.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# meshalloc trace: arrival_sec size runtime_sec"); err != nil {
		return err
	}
	for _, j := range t.Jobs {
		if _, err := fmt.Fprintf(bw, "%.3f %d %.3f\n", j.Arrival, j.Size, j.Runtime); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace written by Write (or hand-made in the same
// format). Jobs are sorted by arrival and renumbered.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d: want 3 fields, got %d", line, len(fields))
		}
		arrival, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad arrival: %v", line, err)
		}
		size, err := strconv.Atoi(fields[1])
		if err != nil || size <= 0 {
			return nil, fmt.Errorf("trace: line %d: bad size %q", line, fields[1])
		}
		runtime, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || runtime < 0 {
			return nil, fmt.Errorf("trace: line %d: bad runtime %q", line, fields[2])
		}
		t.Jobs = append(t.Jobs, Job{Arrival: arrival, Size: size, Runtime: runtime})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(t.Jobs, func(i, k int) bool { return t.Jobs[i].Arrival < t.Jobs[k].Arrival })
	for i := range t.Jobs {
		t.Jobs[i].ID = i
	}
	return t, nil
}
