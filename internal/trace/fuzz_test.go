package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzRead checks the plain-text trace parser never panics and that any
// successfully-parsed trace is internally consistent and round-trips.
func FuzzRead(f *testing.F) {
	f.Add("100 4 50\n200 2 10\n")
	f.Add("# comment\n\n1.5 1 0.25\n")
	f.Add("x y z\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		prev := -1.0
		for i, j := range tr.Jobs {
			if j.ID != i {
				t.Fatalf("job %d has id %d", i, j.ID)
			}
			if j.Size <= 0 || j.Runtime < 0 {
				t.Fatalf("invalid parsed job %+v", j)
			}
			if j.Arrival < prev {
				t.Fatal("arrivals not sorted")
			}
			prev = j.Arrival
		}
		// Round trip: writing and re-reading preserves the job count.
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back.Jobs) != len(tr.Jobs) {
			t.Fatalf("round trip lost jobs: %d vs %d", len(back.Jobs), len(tr.Jobs))
		}
	})
}

// FuzzReadSWF checks the SWF parser never panics and produces valid jobs.
func FuzzReadSWF(f *testing.F) {
	f.Add("; hdr\n1 100 5 3600 16 -1 -1 16 7200 -1 1 3 1 1 1 1 -1 -1\n")
	f.Add("1 2 3 4 5 6 7 8\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadSWF(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, j := range tr.Jobs {
			if j.Size <= 0 || j.Runtime <= 0 || j.Arrival < 0 {
				t.Fatalf("invalid swf job %+v", j)
			}
		}
	})
}

// FuzzReadSWFLenient checks the lenient SWF reader never errors or
// panics on corrupt input, that every parsed job is valid, and that it
// agrees with the strict reader whenever the strict reader succeeds.
func FuzzReadSWFLenient(f *testing.F) {
	f.Add("; hdr\n1 100 5 3600 16 -1 -1 16 7200 -1 1 3 1 1 1 1 -1 -1\n")
	f.Add("truncated line\n1 2 3 4 5 6 7 8\n")
	f.Add("1 NaN 5 60 4 -1 -1 4 0\n1 10 5 60 4 -1 -1 4 0\n")
	f.Add("1 -5 5 60 4 -1 -1 4 0\n;\n\n9 9 9\n")
	f.Add("1 1e308 5 1e308 4 -1 -1 4 0\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		tr, skips, err := ReadSWFLenient(strings.NewReader(input))
		if err != nil {
			t.Fatalf("lenient reader errored on in-memory input: %v", err)
		}
		for _, j := range tr.Jobs {
			if j.Size <= 0 || j.Runtime <= 0 || j.Arrival < 0 {
				t.Fatalf("invalid lenient swf job %+v", j)
			}
		}
		for _, s := range skips {
			if s.Line <= 0 || s.Reason == "" {
				t.Fatalf("malformed skip diagnostic %+v", s)
			}
		}
		strictTr, strictErr := ReadSWF(strings.NewReader(input))
		if strictErr != nil {
			return
		}
		// Strict success means no malformed lines: the readers must
		// agree and every lenient skip is a conventional job skip.
		if len(strictTr.Jobs) != len(tr.Jobs) {
			t.Fatalf("strict %d jobs vs lenient %d", len(strictTr.Jobs), len(tr.Jobs))
		}
		for _, s := range skips {
			if !strings.HasPrefix(s.Reason, "skipped") {
				t.Fatalf("strict reader passed but lenient flagged %v", s)
			}
		}
	})
}

func TestParseArrival(t *testing.T) {
	for _, spec := range []string{"poisson:900", "bursty:300,3600,7200", "poisson:1e-3"} {
		if _, err := ParseArrival(spec, 64, 1); err != nil {
			t.Errorf("ParseArrival(%q) = %v", spec, err)
		}
	}
	for _, spec := range []string{"", "poisson", "poisson:", "poisson:0", "poisson:-5", "poisson:NaN",
		"poisson:+Inf", "poisson:1e300", "bursty:1e9,1e-9,1", "poisson:1,2", "bursty:1,2", "bursty:1,2,0", "uniform:5", "poisson:5,"} {
		if _, err := ParseArrival(spec, 64, 1); err == nil {
			t.Errorf("ParseArrival(%q) accepted", spec)
		}
	}
}

// FuzzParseArrival: ParseArrival never panics, and every source it
// accepts yields jobs of 1..maxSize processors with non-negative,
// nondecreasing arrivals.
func FuzzParseArrival(f *testing.F) {
	for _, s := range []string{"poisson:900", "bursty:300,3600,7200", "poisson:0", "bursty:1,2", "poisson:1e-300", "x:1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		src, err := ParseArrival(spec, 64, 1)
		if err != nil {
			return
		}
		prev := 0.0
		for i := 0; i < 50; i++ {
			j, ok := src.Next()
			if !ok {
				t.Fatalf("%q: source ended after %d jobs", spec, i)
			}
			if j.Size < 1 || j.Size > 64 || !(j.Arrival >= prev) {
				t.Fatalf("%q: job %d is %+v after arrival %v", spec, i, j, prev)
			}
			prev = j.Arrival
		}
	})
}

// FuzzRestoreSource reads arbitrary state payloads, framed in a valid
// container, into every kind of source simrun and the facade restore:
// a limited Poisson, bursty and trace-replay source, and a bare Poisson
// one. Seeds are each kind's genuine state, truncated and bit-flipped.
// Corrupt input must return an error, never panic or hang, and a state
// that is accepted must leave a source whose Next hands out valid jobs
// in arrival order.
func FuzzRestoreSource(f *testing.F) {
	tr := NewSDSC(SDSCConfig{Jobs: 30, MaxSize: 64, Seed: 3})
	mks := []func() Source{
		func() Source { return Limit(NewPoisson(500, 64, 1), 1000) },
		func() Source { return Limit(NewBursty(200, 3600, 7200, 64, 1), 1000) },
		func() Source { return Limit(tr.Source(), 40) },
		func() Source { return NewPoisson(500, 64, 1) },
	}
	for _, mk := range mks {
		src := mk()
		for i := 0; i < 10; i++ {
			src.Next()
		}
		st := payloadOf(snapshotSource(f, src))
		f.Add(st)
		f.Add(st[:len(st)/2])
		f.Add(st[:len(st)-1])
		for _, pos := range []int{0, 8, 20, 40, len(st) / 2, len(st) - 9} {
			flip := bytes.Clone(st)
			flip[pos] ^= 0x40
			f.Add(flip)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, mk := range mks {
			src := mk()
			if err := RestoreSource(bytes.NewReader(framed(payload)), src); err != nil {
				continue
			}
			prev := math.Inf(-1)
			for i := 0; i < 50; i++ {
				j, ok := src.Next()
				if !ok {
					break
				}
				if j.Size < 1 || j.Size > 64 || j.Arrival < prev {
					t.Fatalf("job %d after restore: %+v (previous arrival %v)", i, j, prev)
				}
				prev = j.Arrival
			}
		}
	})
}
