package trace

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

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

// TestRestoreSourceRejectsBadState restores synthetic sources, plain
// and bursty (one with ON periods far shorter than the gaps, so most
// draws go to OFF periods), from their own captured states, and then
// from damaged copies. A genuine state must resume the stream. An RNG
// state stats.RNG rejects (a ring index past 607, a word with bit 63
// set, no words at all), a negative job count or a non-finite clock
// must be rejected.
func TestRestoreSourceRejectsBadState(t *testing.T) {
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
			st, err := CaptureSource(src)
			if err != nil {
				t.Fatal(err)
			}
			fresh := c.mk()
			if err := RestoreSource(fresh, st); err != nil {
				t.Fatalf("genuine state rejected: %v", err)
			}
			for i := 0; i < 10; i++ {
				a, _ := src.Next()
				b, _ := fresh.Next()
				if a != b {
					t.Fatalf("restored job %d is %+v, want %+v", i, b, a)
				}
			}
			edit := func(f func(*SourceState)) SourceState {
				bad := st
				bad.RNG = slices.Clone(st.RNG)
				f(&bad)
				return bad
			}
			for _, bad := range []SourceState{
				edit(func(s *SourceState) { s.RNG[0] = 608 }),
				edit(func(s *SourceState) { s.RNG[1] |= 1 << 63 }),
				edit(func(s *SourceState) { s.RNG = nil }),
				edit(func(s *SourceState) { s.Next = -1 }),
				edit(func(s *SourceState) { s.Now = math.NaN() }),
				edit(func(s *SourceState) { s.Now = math.Inf(1) }),
			} {
				if err := RestoreSource(c.mk(), bad); err == nil {
					t.Fatalf("state %+v accepted", bad)
				}
			}
		})
	}
}

// TestSourceStateRoundTrip encodes the state of every source kind this
// package builds, each behind a limit as simrun wraps them, and reads it
// back: the state must come back equal, the container must hold nothing
// else, and the decoded state must resume the stream where it stopped.
func TestSourceStateRoundTrip(t *testing.T) {
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
			st, err := CaptureSource(src)
			if err != nil {
				t.Fatal(err)
			}
			w := snap.NewWriter(nil)
			WriteSourceState(w, st)
			r, err := snap.NewReader(bytes.NewReader(w.Finish()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReadSourceState(r)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, st) || r.Remaining() != 0 {
				t.Fatalf("read back %+v with %d bytes left, want %+v", got, r.Remaining(), st)
			}
			fresh := c.mk()
			if err := RestoreSource(fresh, got); err != nil {
				t.Fatal(err)
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

// TestReadSourceStateBoundsNesting: a chain of states nested 8 deep
// inside the top one reads back, and one nested 9 deep fails with
// snap.ErrCorrupt instead of recursing on.
func TestReadSourceStateBoundsNesting(t *testing.T) {
	chain := func(nested int) SourceState {
		st := SourceState{Kind: "synthetic", RNG: []uint64{7}}
		for i := 0; i < nested; i++ {
			inner := st
			st = SourceState{Kind: "limit", Left: i, Inner: &inner}
		}
		return st
	}
	for _, c := range []struct {
		nested int
		ok     bool
	}{{0, true}, {1, true}, {8, true}, {9, false}, {100, false}} {
		st := chain(c.nested)
		w := snap.NewWriter(nil)
		WriteSourceState(w, st)
		r, err := snap.NewReader(bytes.NewReader(w.Finish()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadSourceState(r)
		switch {
		case c.ok && (err != nil || !reflect.DeepEqual(got, st)):
			t.Fatalf("%d nested states: read back %+v, err %v", c.nested, got, err)
		case !c.ok && !errors.Is(err, snap.ErrCorrupt):
			t.Fatalf("%d nested states: err %v, want snap.ErrCorrupt", c.nested, err)
		}
	}
}
