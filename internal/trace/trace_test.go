package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSDSCMatchesPublishedStatistics(t *testing.T) {
	// The paper: 6087 jobs; mean interarrival 1301 s (CV 3.7); mean size
	// 14.5 (CV 1.5), power-of-two biased; mean runtime 3.04 h (CV 1.13).
	tr := NewSDSC(SDSCConfig{Jobs: 6087, MaxSize: 352, Seed: 1})
	s := tr.Summarize()
	if s.Jobs != 6087 {
		t.Fatalf("jobs = %d, want 6087", s.Jobs)
	}
	checks := []struct {
		name      string
		got, want float64
		tol       float64 // relative tolerance
	}{
		{"mean interarrival", s.MeanInterarrival, 1301, 0.10},
		{"cv interarrival", s.CVInterarrival, 3.7, 0.15},
		{"mean size", s.MeanSize, 14.5, 0.15},
		{"cv size", s.CVSize, 1.5, 0.20},
		{"mean runtime", s.MeanRuntime, 10944, 0.10},
		{"cv runtime", s.CVRuntime, 1.13, 0.15},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want)/c.want > c.tol {
			t.Errorf("%s = %.3g, want %.3g (±%.0f%%)", c.name, c.got, c.want, c.tol*100)
		}
	}
}

func TestSDSCPowerOfTwoBias(t *testing.T) {
	tr := NewSDSC(SDSCConfig{Jobs: 6087, MaxSize: 352, Seed: 1})
	pow2 := 0
	for _, j := range tr.Jobs {
		if j.Size&(j.Size-1) == 0 {
			pow2++
		}
	}
	frac := float64(pow2) / float64(len(tr.Jobs))
	if frac < 0.75 {
		t.Errorf("power-of-two fraction = %.2f, want >= 0.75", frac)
	}
}

func TestSDSCDeterministicPerSeed(t *testing.T) {
	a := NewSDSC(SDSCConfig{Jobs: 100, MaxSize: 352, Seed: 5})
	b := NewSDSC(SDSCConfig{Jobs: 100, MaxSize: 352, Seed: 5})
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatal("same-seed traces differ")
		}
	}
	c := NewSDSC(SDSCConfig{Jobs: 100, MaxSize: 352, Seed: 6})
	same := true
	for i := range a.Jobs {
		if a.Jobs[i] != c.Jobs[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestSDSCBounds(t *testing.T) {
	tr := NewSDSC(SDSCConfig{Jobs: 2000, MaxSize: 352, Seed: 2})
	prev := 0.0
	for _, j := range tr.Jobs {
		if j.Size < 1 || j.Size > 352 {
			t.Fatalf("job size %d out of range", j.Size)
		}
		if j.Runtime < 30 || j.Runtime > 172800 {
			t.Fatalf("job runtime %g out of range", j.Runtime)
		}
		if j.Arrival < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = j.Arrival
	}
}

func TestFilterMaxSize(t *testing.T) {
	tr := &Trace{Jobs: []Job{
		{ID: 0, Size: 10}, {ID: 1, Size: 320}, {ID: 2, Size: 256}, {ID: 3, Size: 320},
	}}
	out := tr.FilterMaxSize(256)
	if len(out.Jobs) != 2 {
		t.Fatalf("filtered to %d jobs, want 2", len(out.Jobs))
	}
	for i, j := range out.Jobs {
		if j.ID != i {
			t.Fatalf("job %d has ID %d after renumbering", i, j.ID)
		}
	}
}

func TestTruncate(t *testing.T) {
	tr := NewSDSC(SDSCConfig{Jobs: 50, MaxSize: 64, Seed: 1})
	if got := tr.Truncate(10); len(got.Jobs) != 10 {
		t.Fatalf("truncated to %d jobs", len(got.Jobs))
	}
	if got := tr.Truncate(100); len(got.Jobs) != 50 {
		t.Fatalf("over-truncate gave %d jobs", len(got.Jobs))
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := NewSDSC(SDSCConfig{Jobs: 200, MaxSize: 352, Seed: 3})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != len(tr.Jobs) {
		t.Fatalf("round trip lost jobs: %d vs %d", len(back.Jobs), len(tr.Jobs))
	}
	for i := range tr.Jobs {
		if back.Jobs[i].Size != tr.Jobs[i].Size {
			t.Fatalf("job %d size mismatch", i)
		}
		if math.Abs(back.Jobs[i].Arrival-tr.Jobs[i].Arrival) > 0.001 {
			t.Fatalf("job %d arrival mismatch", i)
		}
		if math.Abs(back.Jobs[i].Runtime-tr.Jobs[i].Runtime) > 0.001 {
			t.Fatalf("job %d runtime mismatch", i)
		}
	}
}

func TestReadSortsAndValidates(t *testing.T) {
	in := "# comment\n\n200 4 50\n100 2 10\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Jobs[0].Arrival != 100 || tr.Jobs[0].ID != 0 {
		t.Fatalf("jobs not sorted/renumbered: %+v", tr.Jobs)
	}
}

func TestReadErrors(t *testing.T) {
	for _, in := range []string{
		"1 2\n",         // too few fields
		"x 2 3\n",       // bad arrival
		"1 zero 3\n",    // bad size
		"1 0 3\n",       // non-positive size
		"1 2 -3\n",      // negative runtime
		"1 2 3 4 5 6\n", // too many fields
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) should fail", in)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := (&Trace{}).Summarize()
	if s.Jobs != 0 || s.MeanSize != 0 {
		t.Fatal("empty trace summary should be zero")
	}
}
