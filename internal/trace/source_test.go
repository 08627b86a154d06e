package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"testing"
	"time"

	"meshalloc/internal/snap"
)

func TestTraceSourceReplaysInOrder(t *testing.T) {
	tr := NewSDSC(SDSCConfig{Jobs: 50, MaxSize: 64, Seed: 3})
	src := tr.Source()
	for i, want := range tr.Jobs {
		j, ok := src.Next()
		if !ok {
			t.Fatalf("source exhausted at %d", i)
		}
		if j != want {
			t.Fatalf("job %d: %+v, want %+v", i, j, want)
		}
	}
	if _, ok := src.Next(); ok {
		t.Fatal("source should be exhausted")
	}
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted source must stay exhausted")
	}
}

func TestPoissonSourceStatistics(t *testing.T) {
	const mean = 500.0
	src := NewPoisson(mean, 64, 1)
	var last float64
	var inter []float64
	n := 20000
	for i := 0; i < n; i++ {
		j, ok := src.Next()
		if !ok {
			t.Fatal("synthetic source must not exhaust")
		}
		if j.ID != i {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
		if j.Arrival < last {
			t.Fatalf("arrivals not nondecreasing: %g after %g", j.Arrival, last)
		}
		if j.Size < 1 || j.Size > 64 {
			t.Fatalf("size %d outside [1,64]", j.Size)
		}
		if j.Runtime < 30 || j.Runtime > 172800 {
			t.Fatalf("runtime %g outside clamp", j.Runtime)
		}
		inter = append(inter, j.Arrival-last)
		last = j.Arrival
	}
	// Poisson: mean interarrival near the configured mean, CV near 1.
	m, s := meanStd(inter)
	if math.Abs(m-mean)/mean > 0.05 {
		t.Fatalf("mean interarrival %g, want ~%g", m, mean)
	}
	if cv := s / m; math.Abs(cv-1) > 0.1 {
		t.Fatalf("interarrival CV %g, want ~1 (exponential)", cv)
	}
}

// TestBurstySourceBurstier pins the point of the on/off process: at the
// same long-run arrival rate, interarrivals are burstier (higher CV)
// than Poisson, because arrivals cluster inside ON periods.
func TestBurstySourceBurstier(t *testing.T) {
	src := NewBursty(200, 3600, 7200, 64, 1)
	var last float64
	var inter []float64
	for i := 0; i < 20000; i++ {
		j, ok := src.Next()
		if !ok {
			t.Fatal("bursty source must not exhaust")
		}
		if j.Arrival < last {
			t.Fatalf("arrivals not nondecreasing at %d", i)
		}
		inter = append(inter, j.Arrival-last)
		last = j.Arrival
	}
	m, s := meanStd(inter)
	// Long-run mean interarrival = 200 * (3600+7200)/3600 = 600.
	if math.Abs(m-600)/600 > 0.15 {
		t.Fatalf("long-run mean interarrival %g, want ~600", m)
	}
	if cv := s / m; cv < 1.3 {
		t.Fatalf("bursty CV %g, want well above Poisson's 1", cv)
	}
}

func TestLimitCapsSource(t *testing.T) {
	src := Limit(NewPoisson(100, 64, 1), 7)
	count := 0
	for {
		_, ok := src.Next()
		if !ok {
			break
		}
		count++
		if count > 7 {
			t.Fatal("Limit did not cap the stream")
		}
	}
	if count != 7 {
		t.Fatalf("yielded %d jobs, want 7", count)
	}
	// A Limit over an already-short stream passes exhaustion through.
	tr := &Trace{Jobs: []Job{{ID: 0, Size: 1, Runtime: 30}}}
	src = Limit(tr.Source(), 5)
	if _, ok := src.Next(); !ok {
		t.Fatal("first job missing")
	}
	if _, ok := src.Next(); ok {
		t.Fatal("underlying exhaustion not passed through")
	}
}

func TestSourceConstructorsValidate(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("poisson", func() { NewPoisson(0, 64, 1) })
	mustPanic("bursty inter", func() { NewBursty(0, 10, 10, 64, 1) })
	mustPanic("bursty on", func() { NewBursty(10, 0, 10, 64, 1) })
	mustPanic("bursty off", func() { NewBursty(10, 10, -1, 64, 1) })
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}

// snapshotSource returns the container SnapshotSource writes for src.
func snapshotSource(t testing.TB, src Source) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SnapshotSource(&buf, src); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// framed returns a container holding payload.
func framed(payload []byte) []byte {
	w := snap.NewWriter(nil)
	copy(w.Extend(len(payload)), payload)
	return w.Finish()
}

// payloadOf returns the payload of a container: what the source's
// AppendState wrote.
func payloadOf(container []byte) []byte { return container[snap.Framing-4 : len(container)-4] }

// TestRestoreSourceRejectsBadState restores synthetic sources, plain
// and bursty (one with ON periods far shorter than the gaps, so most
// draws go to OFF periods), from their own states, and then from
// damaged copies. A genuine state must resume the stream. An RNG state
// stats.RNG rejects (a ring index past 607, a word with bit 63 set, no
// words at all), a negative job count, a non-finite clock or a negative
// or infinite ON remainder must be rejected, and a rejected state must
// leave the source as it was.
func TestRestoreSourceRejectsBadState(t *testing.T) {
	le := binary.LittleEndian
	// The synthetic state is its kind, three float parameters and the
	// size cap, the RNG's state, then the ON remainder, clock and count.
	const rngAt = 8 + len("synthetic") + 4*8
	for _, c := range []struct {
		name string
		mk   func() *Synthetic
	}{
		{"poisson", func() *Synthetic { return NewPoisson(500, 64, 1) }},
		{"bursty", func() *Synthetic { return NewBursty(200, 3600, 7200, 64, 1) }},
		{"bursty-short-on", func() *Synthetic { return NewBursty(1000, 1, 5, 64, 2) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := c.mk()
			for i := 0; i < 2000; i++ {
				src.Next()
			}
			st := payloadOf(snapshotSource(t, src))
			fresh := c.mk()
			if err := RestoreSource(bytes.NewReader(framed(st)), fresh); err != nil {
				t.Fatalf("genuine state rejected: %v", err)
			}
			for i := 0; i < 10; i++ {
				a, _ := src.Next()
				b, _ := fresh.Next()
				if a != b {
					t.Fatalf("restored job %d is %+v, want %+v", i, b, a)
				}
			}
			n := len(st)
			putF := func(off int, v float64) func([]byte) []byte {
				return func(b []byte) []byte { le.PutUint64(b[off:], math.Float64bits(v)); return b }
			}
			for _, bad := range []struct {
				name string
				edit func([]byte) []byte
			}{
				{"index-608", func(b []byte) []byte { le.PutUint64(b[rngAt+8:], 608); return b }},
				{"bit-63", func(b []byte) []byte { b[rngAt+16+7] |= 0x80; return b }},
				{"no-rng-words", func(b []byte) []byte {
					return slices.Concat(b[:rngAt], make([]byte, 8), b[rngAt+8*(2+607):])
				}},
				{"negative-count", func(b []byte) []byte { le.PutUint64(b[n-8:], math.MaxUint64); return b }},
				{"clock-nan", putF(n-16, math.NaN())},
				{"clock-inf", putF(n-16, math.Inf(1))},
				{"on-negative", putF(n-24, -1)},
				{"on-inf", putF(n-24, math.Inf(1))},
			} {
				fresh := c.mk()
				before := payloadOf(snapshotSource(t, fresh))
				if err := RestoreSource(bytes.NewReader(framed(bad.edit(bytes.Clone(st)))), fresh); err == nil {
					t.Fatalf("%s: state accepted", bad.name)
				}
				if after := payloadOf(snapshotSource(t, fresh)); !bytes.Equal(after, before) {
					t.Fatalf("%s: the rejected state changed the source", bad.name)
				}
			}
		})
	}
}

// TestRestoreSourceRejectsOtherParameters: a source's state restores
// only into a source of the same kind built with the same parameters.
// A Poisson stream's state read into a Poisson source of another mean,
// a bursty source, one of another size cap, or a trace replay fails
// with ErrSourceMismatch, and so do the other kinds' states read into
// it. Reading any of them into the source that wrote it works.
func TestRestoreSourceRejectsOtherParameters(t *testing.T) {
	tr := NewSDSC(SDSCConfig{Jobs: 50, MaxSize: 64, Seed: 3})
	mks := []struct {
		name string
		mk   func() Source
	}{
		{"poisson:900", func() Source { return Limit(NewPoisson(900, 256, 1), 3000) }},
		{"poisson:300", func() Source { return Limit(NewPoisson(300, 256, 1), 3000) }},
		{"poisson:900-cap-64", func() Source { return Limit(NewPoisson(900, 64, 1), 3000) }},
		{"bursty:900,100,100000", func() Source { return Limit(NewBursty(900, 100, 100000, 256, 1), 3000) }},
		{"bursty:900,100,50000", func() Source { return Limit(NewBursty(900, 100, 50000, 256, 1), 3000) }},
		{"bursty:900,200,100000", func() Source { return Limit(NewBursty(900, 200, 100000, 256, 1), 3000) }},
		{"trace", func() Source { return Limit(tr.Source(), 40) }},
		{"bare-poisson:900", func() Source { return NewPoisson(900, 256, 1) }},
	}
	for _, from := range mks {
		src := from.mk()
		for i := 0; i < 20; i++ {
			src.Next()
		}
		blob := snapshotSource(t, src)
		for _, into := range mks {
			err := RestoreSource(bytes.NewReader(blob), into.mk())
			if from.name == into.name && err != nil {
				t.Errorf("%s state into its own kind of source: %v", from.name, err)
			}
			if from.name != into.name && !errors.Is(err, ErrSourceMismatch) {
				t.Errorf("%s state into a %s source: %v, want ErrSourceMismatch", from.name, into.name, err)
			}
		}
	}
}

// TestSourceCodecRoundTrip encodes the state of every source kind this
// package builds, each behind a limit as simrun wraps them, and reads it
// back: the state must read back whole and encode to the same bytes,
// and the restored source must resume the stream where it stopped.
func TestSourceCodecRoundTrip(t *testing.T) {
	tr := NewSDSC(SDSCConfig{Jobs: 50, MaxSize: 64, Seed: 3})
	for _, c := range []struct {
		name string
		mk   func() Source
	}{
		{"poisson", func() Source { return Limit(NewPoisson(500, 64, 1), 1000) }},
		{"bursty", func() Source { return Limit(NewBursty(200, 3600, 7200, 64, 1), 1000) }},
		{"trace", func() Source { return Limit(tr.Source(), 40) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := c.mk()
			for i := 0; i < 20; i++ {
				src.Next()
			}
			blob := snapshotSource(t, src)
			fresh := c.mk()
			if err := RestoreSource(bytes.NewReader(blob), fresh); err != nil {
				t.Fatal(err)
			}
			if got := snapshotSource(t, fresh); !bytes.Equal(got, blob) {
				t.Fatalf("restored source encodes to %x, want %x", got, blob)
			}
			for i := 0; i < 10; i++ {
				a, _ := src.Next()
				b, _ := fresh.Next()
				if a != b {
					t.Fatalf("restored job %d is %+v, want %+v", i, b, a)
				}
			}
		})
	}
}

// TestSyntheticEndsOnInfiniteGap restores a bursty source whose RNG's
// next two outputs make math/rand's exponential variate +Inf: an output
// in the variate's tail with the low byte of its top 32 bits clear,
// then 0. Next must end the stream within a second instead of looking
// forever for an ON period that fits the gap.
func TestSyntheticEndsOnInfiniteGap(t *testing.T) {
	le := binary.LittleEndian
	st := payloadOf(snapshotSource(t, Limit(NewBursty(200, 3600, 7200, 64, 1), 1000)))
	// The limit's kind and remainder, the synthetic kind and its four
	// parameters, then the RNG's word count, ring index and ring.
	rngAt := 8 + len("limit") + 8 + 8 + len("synthetic") + 4*8
	le.PutUint64(st[rngAt+8:], 0)
	le.PutUint64(st[rngAt+16:], 0xe3000000<<31)
	le.PutUint64(st[rngAt+24:], 0)
	src := Limit(NewBursty(200, 3600, 7200, 64, 1), 1000)
	if err := RestoreSource(bytes.NewReader(framed(st)), src); err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	go func() {
		_, ok := src.Next()
		done <- ok
	}()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next handed out a job after an infinite gap")
		}
	case <-time.After(time.Second):
		t.Fatal("Next still running after 1 s")
	}
}

// opaqueSource is a Source this package did not build.
type opaqueSource struct{}

func (opaqueSource) Next() (Job, bool) { return Job{}, false }

// TestSnapshotSourceRejectsForeignSources: a source that cannot encode
// itself, alone or behind a limit, is refused by both halves of the
// pair, and a negative limit remainder or trailing bytes are refused
// on restore.
func TestSnapshotSourceRejectsForeignSources(t *testing.T) {
	for _, src := range []Source{opaqueSource{}, Limit(opaqueSource{}, 3)} {
		if err := SnapshotSource(io.Discard, src); err == nil {
			t.Errorf("snapshot of %T accepted", src)
		}
		blob := snapshotSource(t, Limit(NewPoisson(500, 64, 1), 3))
		if err := RestoreSource(bytes.NewReader(blob), src); err == nil {
			t.Errorf("restore into %T accepted", src)
		}
	}
	st := payloadOf(snapshotSource(t, Limit(NewPoisson(500, 64, 1), 3)))
	neg := bytes.Clone(st)
	binary.LittleEndian.PutUint64(neg[8+len("limit"):], math.MaxUint64)
	for name, bad := range map[string][]byte{"negative-remainder": neg, "trailing": append(bytes.Clone(st), 0)} {
		if err := RestoreSource(bytes.NewReader(framed(bad)), Limit(NewPoisson(500, 64, 1), 3)); err == nil {
			t.Errorf("%s: state accepted", name)
		}
	}
}
