package trace

import (
	"errors"
	"fmt"
	"io"
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

// Next implements Source. Synthetic streams never exhaust, short of an
// infinite gap; bound them with Limit or the engine's horizon.
func (s *Synthetic) Next() (Job, bool) {
	gap := s.rng.ExpFloat64() * s.meanInter
	if math.IsInf(gap, 1) {
		// math/rand's exponential variate is +Inf when its tail branch
		// draws an output of 0, which in practice only a forged RNG
		// state does. The next job would never arrive, and no ON
		// period would ever fit its gap.
		return Job{}, false
	}
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

// ErrSourceMismatch is returned (wrapped) by a source's ReadState when
// the state was written by another kind of source, or by a synthetic
// source built with other parameters.
var ErrSourceMismatch = errors.New("trace: source state is from another source")

// readKind reads the kind that opens a source's state and fails with
// ErrSourceMismatch unless it is want.
func readKind(r *snap.Reader, want string) error {
	kind := r.String()
	if r.Err() == nil && kind != want {
		return fmt.Errorf("%w: a %q state read into a %q source", ErrSourceMismatch, kind, want)
	}
	return r.Err()
}

// AppendState implements snap.Codec: the source's parameters (mean
// interarrival, ON and OFF means, size cap), its RNG's state, its
// ON-period remainder, clock and job count.
func (s *Synthetic) AppendState(w *snap.Writer) {
	w.String("synthetic")
	w.F64(s.meanInter)
	w.F64(s.meanOn)
	w.F64(s.meanOff)
	w.Int(s.maxSize)
	s.rng.AppendState(w)
	w.F64(s.onLeft)
	w.F64(s.now)
	w.Int(s.next)
}

// ReadState implements snap.Codec. It fails with ErrSourceMismatch on a
// state written by another kind of source or by a synthetic source
// built with other parameters, and rejects an RNG state stats.RNG
// rejects, a negative or non-finite ON remainder or clock and a
// negative job count, leaving s as it was.
func (s *Synthetic) ReadState(r *snap.Reader) error {
	if err := readKind(r, "synthetic"); err != nil {
		return err
	}
	inter, on, off, maxSize := r.F64(), r.F64(), r.F64(), r.Int()
	if r.Err() == nil && (inter != s.meanInter || on != s.meanOn || off != s.meanOff || maxSize != s.maxSize) {
		return fmt.Errorf("%w: state of a source with interarrival %g, on %g, off %g and sizes up to %d, read into one with %g, %g, %g and %d",
			ErrSourceMismatch, inter, on, off, maxSize, s.meanInter, s.meanOn, s.meanOff, s.maxSize)
	}
	rng := stats.NewRNG(0)
	if err := rng.ReadState(r); err != nil {
		return err
	}
	onLeft, now, next := r.F64(), r.F64(), r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if next < 0 || !(now >= 0 && onLeft >= 0) || math.IsInf(now, 1) || math.IsInf(onLeft, 1) {
		return fmt.Errorf("trace: synthetic source state has job count %d, clock %v and ON remainder %v", next, now, onLeft)
	}
	s.rng, s.onLeft, s.now, s.next = rng, onLeft, now, next
	return nil
}

// AppendState implements snap.Codec: the replay cursor.
func (s *traceSource) AppendState(w *snap.Writer) {
	w.String("trace")
	w.Int(s.i)
}

// ReadState implements snap.Codec. It rejects a cursor past the trace.
func (s *traceSource) ReadState(r *snap.Reader) error {
	if err := readKind(r, "trace"); err != nil {
		return err
	}
	switch i := r.Int(); {
	case r.Err() != nil:
		return r.Err()
	case i < 0 || i > len(s.jobs):
		return fmt.Errorf("trace: replay cursor %d outside the %d-job trace", i, len(s.jobs))
	default:
		s.i = i
		return nil
	}
}

// SnapshotSource writes src's position to out as one checksummed
// container, which RestoreSource reads back. It fails on a source that
// cannot encode itself, one not a snap.Codec, or a Limit around one.
func SnapshotSource(out io.Writer, src Source) error {
	for s := src; ; {
		if _, ok := s.(snap.Codec); !ok {
			return fmt.Errorf("trace: cannot snapshot source type %T", s)
		}
		l, ok := s.(*limited)
		if !ok {
			break
		}
		s = l.src
	}
	w := snap.NewWriter(nil)
	src.(snap.Codec).AppendState(w)
	_, err := out.Write(w.Finish())
	return err
}

// RestoreSource sets src, a source built as the one SnapshotSource
// wrote was, to the position in the container in holds. It fails with
// the snap package's typed errors on a damaged container, with
// ErrSourceMismatch on the state of another kind of source or of one
// built with other parameters, and on a state src could not have
// reached or trailing bytes.
func RestoreSource(in io.Reader, src Source) error {
	r, err := snap.NewReader(in)
	if err != nil {
		return err
	}
	c, ok := src.(snap.Codec)
	if !ok {
		return fmt.Errorf("trace: cannot restore source type %T", src)
	}
	if err := c.ReadState(r); err != nil {
		return err
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("trace: %d bytes of trailing source state: %w", n, snap.ErrCorrupt)
	}
	return nil
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

// AppendState implements snap.Codec: the remainder, then the state of
// the source l wraps, if that source encodes itself.
func (l *limited) AppendState(w *snap.Writer) {
	w.String("limit")
	w.Int(l.left)
	if c, ok := l.src.(snap.Codec); ok {
		c.AppendState(w)
	}
}

// ReadState implements snap.Codec: it reads the remainder, rejecting a
// negative one, and then the wrapped source's state into that source.
func (l *limited) ReadState(r *snap.Reader) error {
	if err := readKind(r, "limit"); err != nil {
		return err
	}
	left := r.Int()
	if r.Err() == nil && left < 0 {
		return fmt.Errorf("trace: limit remainder %d is negative", left)
	}
	c, ok := l.src.(snap.Codec)
	if !ok {
		return fmt.Errorf("trace: cannot restore source type %T", l.src)
	}
	if err := c.ReadState(r); err != nil {
		return err
	}
	l.left = left
	return nil
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
