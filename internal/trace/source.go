package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"meshalloc/internal/snap"
	"meshalloc/internal/stats"
)

// Source is a pull-based job stream for open-system simulation: Next
// yields jobs in nondecreasing arrival order until the stream is
// exhausted. Unlike a Trace, a Source need not exist in memory all at
// once — the engine pulls the next arrival only when the clock reaches
// it, so an unbounded synthetic stream drives a constant-memory run.
type Source interface {
	// Next returns the next job and true, or a zero Job and false when
	// the stream is exhausted.
	Next() (Job, bool)
}

// traceSource replays a Trace's jobs in order.
type traceSource struct {
	jobs []Job
	i    int
}

// Source returns a Source replaying the trace's jobs in arrival order.
func (t *Trace) Source() Source {
	return &traceSource{jobs: t.Jobs}
}

func (s *traceSource) Next() (Job, bool) {
	if s.i >= len(s.jobs) {
		return Job{}, false
	}
	j := s.jobs[s.i]
	s.i++
	return j, true
}

// Synthetic is an unbounded open-system arrival generator: interarrival
// times from a Poisson or interrupted-Poisson (bursty on/off) process,
// job sizes and runtimes from the SDSC-fitted distributions of NewSDSC.
// Jobs are numbered from 0 in generation order.
type Synthetic struct {
	rng      *stats.RNG
	sizes    *stats.DiscreteDist
	runtimes stats.Lognormal
	maxSize  int

	meanInter float64
	// Bursty (interrupted Poisson) state: arrivals occur only during ON
	// periods; ON and OFF durations are exponential with means meanOn
	// and meanOff. meanOn == 0 means plain Poisson (always on).
	meanOn, meanOff float64
	onLeft          float64

	now  float64
	next int
}

// NewPoisson returns an open-system source with Poisson arrivals at the
// given mean interarrival time (seconds), sizes capped at maxSize. It
// panics on a non-positive mean interarrival.
func NewPoisson(meanInterarrival float64, maxSize int, seed int64) *Synthetic {
	if meanInterarrival <= 0 {
		panic(fmt.Sprintf("trace: invalid mean interarrival %g", meanInterarrival))
	}
	return &Synthetic{
		rng:       stats.NewRNG(seed),
		sizes:     sdscSizeDist(),
		runtimes:  sdscRuntimeDist(),
		maxSize:   maxSize,
		meanInter: meanInterarrival,
	}
}

// NewBursty returns an on/off (interrupted Poisson) source: during ON
// periods jobs arrive with the given mean interarrival; OFF periods
// contribute no arrivals. ON and OFF durations are exponential with
// means meanOn and meanOff, so the long-run arrival rate is the Poisson
// rate thinned by meanOn/(meanOn+meanOff) while bursts within ON
// periods hit the full rate. It panics on non-positive parameters.
func NewBursty(meanInterarrival, meanOn, meanOff float64, maxSize int, seed int64) *Synthetic {
	if meanInterarrival <= 0 || meanOn <= 0 || meanOff <= 0 {
		panic(fmt.Sprintf("trace: invalid bursty parameters %g/%g/%g",
			meanInterarrival, meanOn, meanOff))
	}
	s := NewPoisson(meanInterarrival, maxSize, seed)
	s.meanOn, s.meanOff = meanOn, meanOff
	s.onLeft = s.rng.ExpFloat64() * meanOn
	return s
}

// Next implements Source. Synthetic streams never exhaust; bound them
// with Limit or the engine's horizon.
func (s *Synthetic) Next() (Job, bool) {
	gap := s.rng.ExpFloat64() * s.meanInter
	if s.meanOn > 0 {
		// Consume ON time until the gap fits, skipping OFF periods.
		for gap > s.onLeft {
			gap -= s.onLeft
			s.now += s.onLeft + s.rng.ExpFloat64()*s.meanOff
			s.onLeft = s.rng.ExpFloat64() * s.meanOn
		}
		s.onLeft -= gap
	}
	s.now += gap

	size, run := sampleSDSCJob(s.rng, s.sizes, s.runtimes, s.maxSize)
	j := Job{ID: s.next, Arrival: s.now, Size: size, Runtime: run}
	s.next++
	return j, true
}

// SourceState is the serializable state of a Source built by this
// package: a synthetic source's RNG state (stats.RNG's state words) and
// its clock, ON-period remainder and job count; a trace replay's or a
// limit's cursor. Inner nests for wrapped sources.
type SourceState struct {
	Kind   string // "synthetic", "trace", or "limit"
	RNG    []uint64
	OnLeft float64
	Now    float64
	Next   int
	Index  int
	Left   int
	Inner  *SourceState
}

// CaptureSource snapshots the state of a Source built by this package.
// It errors on source types it does not know how to restore.
func CaptureSource(src Source) (SourceState, error) {
	switch s := src.(type) {
	case *Synthetic:
		return SourceState{
			Kind: "synthetic", RNG: s.rng.AppendState(nil),
			OnLeft: s.onLeft, Now: s.now, Next: s.next,
		}, nil
	case *traceSource:
		return SourceState{Kind: "trace", Index: s.i}, nil
	case *limited:
		inner, err := CaptureSource(s.src)
		if err != nil {
			return SourceState{}, err
		}
		return SourceState{Kind: "limit", Left: s.left, Inner: &inner}, nil
	default:
		return SourceState{}, fmt.Errorf("trace: cannot snapshot source type %T", src)
	}
}

// RestoreSource sets a freshly constructed source (built with the same
// parameters as the one captured) to the recorded state. It errors on a
// kind/type mismatch, an RNG state stats.RNG rejects or an out-of-range
// cursor, count or clock.
func RestoreSource(src Source, st SourceState) error {
	switch s := src.(type) {
	case *Synthetic:
		if st.Kind != "synthetic" {
			return fmt.Errorf("trace: source state kind %q does not match *Synthetic", st.Kind)
		}
		if st.Next < 0 || !(st.Now >= 0) || math.IsInf(st.Now, 1) {
			return fmt.Errorf("trace: synthetic source state has job count %d and clock %v", st.Next, st.Now)
		}
		if err := s.rng.SetState(st.RNG); err != nil {
			return err
		}
		s.onLeft, s.now, s.next = st.OnLeft, st.Now, st.Next
		return nil
	case *traceSource:
		if st.Kind != "trace" {
			return fmt.Errorf("trace: source state kind %q does not match trace replay", st.Kind)
		}
		if st.Index < 0 || st.Index > len(s.jobs) {
			return fmt.Errorf("trace: replay cursor %d outside the %d-job trace", st.Index, len(s.jobs))
		}
		s.i = st.Index
		return nil
	case *limited:
		if st.Kind != "limit" || st.Inner == nil {
			return fmt.Errorf("trace: source state kind %q does not match a limited source", st.Kind)
		}
		if st.Left < 0 {
			return fmt.Errorf("trace: limit remainder %d is negative", st.Left)
		}
		s.left = st.Left
		return RestoreSource(s.src, *st.Inner)
	default:
		return fmt.Errorf("trace: cannot restore source type %T", src)
	}
}

// maxSourceNesting bounds how many states a decoded SourceState may
// nest inside the top one. The sources this package builds nest one
// (a limit around a synthetic stream or a trace replay), so a deeper
// chain is corrupt.
const maxSourceNesting = 8

// WriteSourceState appends st to w, followed by the states it wraps.
func WriteSourceState(w *snap.Writer, st SourceState) {
	w.String(st.Kind)
	w.Words(st.RNG)
	w.F64(st.OnLeft)
	w.F64(st.Now)
	w.Int(st.Next)
	w.Int(st.Index)
	w.Int(st.Left)
	w.Bool(st.Inner != nil)
	if st.Inner != nil {
		WriteSourceState(w, *st.Inner)
	}
}

// ReadSourceState reads a state WriteSourceState wrote. A read past
// the payload, or a chain nested more than 8 states deep, fails with
// snap.ErrCorrupt. The state is not checked against any source:
// RestoreSource does that.
func ReadSourceState(r *snap.Reader) (SourceState, error) { return readSourceState(r, 0) }

func readSourceState(r *snap.Reader, depth int) (SourceState, error) {
	var st SourceState
	if depth > maxSourceNesting {
		return st, fmt.Errorf("trace: source state nests deeper than %d: %w", maxSourceNesting, snap.ErrCorrupt)
	}
	st.Kind = r.String()
	st.RNG = r.Words(nil, stats.StateWords)
	st.OnLeft = r.F64()
	st.Now = r.F64()
	st.Next = r.Int()
	st.Index = r.Int()
	st.Left = r.Int()
	if r.Bool() {
		inner, err := readSourceState(r, depth+1)
		if err != nil {
			return st, err
		}
		st.Inner = &inner
	}
	return st, r.Err()
}

// limited caps a Source at n jobs.
type limited struct {
	src  Source
	left int
}

// Limit returns a Source yielding at most n jobs from src.
func Limit(src Source, n int) Source {
	return &limited{src: src, left: n}
}

func (l *limited) Next() (Job, bool) {
	if l.left <= 0 {
		return Job{}, false
	}
	j, ok := l.src.Next()
	if ok {
		l.left--
	}
	return j, ok
}

// maxArrivalSec caps every ParseArrival parameter. It is far above any
// trace's time span; parameters near the float64 limit would overflow
// arrival times to +Inf within a few draws.
const maxArrivalSec = 1e12

// maxGapOverOn caps MEANSEC/ONSEC for bursty arrivals. Each arrival
// consumes about that many ON periods, one draw each, so an uncapped
// ratio lets a single Next run for hours.
const maxGapOverOn = 1e6

// ParseArrival builds an open-system arrival source from its spec:
// "poisson:MEANSEC" or "bursty:MEANSEC,ONSEC,OFFSEC", every parameter a
// positive number of seconds no larger than 1e12, and for bursty
// MEANSEC at most 1e6 times ONSEC. Jobs request 1..maxSize
// processors.
func ParseArrival(spec string, maxSize int, seed int64) (Source, error) {
	kind, args, _ := strings.Cut(spec, ":")
	var nums []float64
	if args != "" {
		for _, p := range strings.Split(args, ",") {
			v, err := strconv.ParseFloat(p, 64)
			// NaN fails every comparison, so test for the valid range
			// rather than against the invalid one.
			if err != nil || !(v > 0 && v <= maxArrivalSec) {
				return nil, fmt.Errorf("bad arrival parameter %q in %q (want a number in (0,%g])", p, spec, maxArrivalSec)
			}
			nums = append(nums, v)
		}
	}
	switch kind {
	case "poisson":
		if len(nums) != 1 {
			return nil, fmt.Errorf("poisson arrival wants poisson:MEANSEC, got %q", spec)
		}
		return NewPoisson(nums[0], maxSize, seed), nil
	case "bursty":
		if len(nums) != 3 {
			return nil, fmt.Errorf("bursty arrival wants bursty:MEANSEC,ONSEC,OFFSEC, got %q", spec)
		}
		if nums[0] > maxGapOverOn*nums[1] {
			return nil, fmt.Errorf("bursty arrival %q: MEANSEC over ONSEC is above %g", spec, maxGapOverOn)
		}
		return NewBursty(nums[0], nums[1], nums[2], maxSize, seed), nil
	default:
		return nil, fmt.Errorf("unknown arrival process %q (want poisson or bursty)", kind)
	}
}
