package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// quickOpt keeps harness tests fast: a short trace at a coarse scale.
func quickOpt() Options {
	return Options{Jobs: 150, TimeScale: 0.01, Seed: 1, Loads: []float64{1.0, 0.2}}
}

// TestEntryPointsRejectNegativeSizes: a negative trace length or
// replication count is an error from every entry point, not a panic
// deep inside a figure.
func TestEntryPointsRejectNegativeSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Options) error
	}{
		{"fig7", func(o Options) error { _, err := FigureByID("7", o); return err }},
		{"ext-cube", func(o Options) error { _, err := ExtensionByID("ext-cube", o); return err }},
		{"check", func(o Options) error { _, err := Check(o); return err }},
	} {
		for _, o := range []Options{{Jobs: -5}, {Replications: -2}} {
			if err := tc.run(o); err == nil {
				t.Errorf("%s accepted Jobs %d Replications %d", tc.name, o.Jobs, o.Replications)
			}
		}
	}
}

func TestFig6RendersGaps(t *testing.T) {
	fig := Fig6()
	if fig.ID != "fig6" || len(fig.Tables) != 2 {
		t.Fatalf("fig6 structure: %+v", fig)
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"hilbert", "hindex", "gaps after truncation"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig6 output missing %q", want)
		}
	}
	wantNotes := []string{
		"hilbert: 3 gaps after truncation (paper's arrows): (6,21)->(3,21), (0,21)->(15,21), (12,21)->(9,21)",
		"hindex: 3 gaps after truncation (paper's arrows): (15,14)->(15,17), (10,21)->(5,21), (6,21)->(9,21)",
	}
	if !reflect.DeepEqual(fig.Notes, wantNotes) {
		t.Errorf("fig6 notes:\n got %q\nwant %q", fig.Notes, wantNotes)
	}
}

func TestFig7StructureAndShape(t *testing.T) {
	fig, err := Fig7(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	// 3 patterns x 9 allocators.
	if len(fig.Series) != 27 {
		t.Fatalf("fig7 has %d series, want 27", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 2 || len(s.Y) != 2 {
			t.Fatalf("series %q has %d points, want 2", s.Label, len(s.X))
		}
		// X is load descending: 1.0 then 0.2.
		if s.X[0] != 1.0 || s.X[1] != 0.2 {
			t.Fatalf("series %q x = %v", s.Label, s.X)
		}
		if s.Y[0] <= 0 || s.Y[1] <= 0 {
			t.Fatalf("series %q has non-positive responses", s.Label)
		}
		// Contracting arrivals 5x must not decrease mean response.
		if s.Y[1] < s.Y[0] {
			t.Errorf("series %q: response fell under 5x load (%g -> %g)", s.Label, s.Y[0], s.Y[1])
		}
	}
}

func TestFig8FiltersLargeJobs(t *testing.T) {
	// 16x16 mesh: the trace must lose its >256-processor jobs rather
	// than erroring.
	opt := quickOpt()
	opt.Jobs = 400
	fig, err := Fig8(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 27 {
		t.Fatalf("fig8 has %d series", len(fig.Series))
	}
}

func TestFig9And10Correlations(t *testing.T) {
	if testing.Short() {
		t.Skip("correlation figures need a longer trace")
	}
	opt := Options{Jobs: 2500, TimeScale: 0.01, Seed: 1}
	fig9, err := Fig9(opt)
	if err != nil {
		t.Fatal(err)
	}
	fig10, err := Fig10(opt)
	if err != nil {
		t.Fatal(err)
	}
	r9 := pearsonFromNotes(t, fig9)
	r10 := pearsonFromNotes(t, fig10)
	// The paper's claim: message distance correlates tightly with
	// runtime, pairwise distance does not.
	if r10 < 0.5 {
		t.Errorf("fig10 Pearson r = %g, want strong positive", r10)
	}
	if abs(r9) > abs(r10)-0.2 {
		t.Errorf("fig9 r = %g should be much weaker than fig10 r = %g", r9, r10)
	}
}

func pearsonFromNotes(t *testing.T, fig *Figure) float64 {
	t.Helper()
	for _, n := range fig.Notes {
		if i := strings.Index(n, "Pearson r = "); i >= 0 {
			var r float64
			if _, err := sscanf(n[i:], "Pearson r = %g", &r); err == nil {
				return r
			}
		}
	}
	t.Fatalf("%s: no Pearson note found in %v", fig.ID, fig.Notes)
	return 0
}

func TestFig11Table(t *testing.T) {
	fig, err := Fig11(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Tables) != 1 {
		t.Fatal("fig11 should have one table")
	}
	tab := fig.Tables[0]
	if len(tab.Rows) != 12 {
		t.Fatalf("fig11 has %d rows, want 12 algorithms", len(tab.Rows))
	}
	// Rows are sorted by percent contiguous descending.
	prev := 101.0
	for _, row := range tab.Rows {
		var pct float64
		if _, err := sscanf(row[1], "%g%%", &pct); err != nil {
			t.Fatalf("bad percent cell %q", row[1])
		}
		if pct > prev {
			t.Fatal("fig11 rows not sorted by contiguity")
		}
		prev = pct
	}
}

func TestFig1PositiveTrend(t *testing.T) {
	fig, err := Fig1(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 || len(fig.Series[0].X) < 20 {
		t.Fatalf("fig1 series too small: %d points", len(fig.Series[0].X))
	}
	r := pearsonFromNotes(t, fig)
	if r < 0.3 {
		t.Errorf("fig1 Pearson r = %g, want clear positive trend", r)
	}
}

func TestFigureByID(t *testing.T) {
	for _, id := range []string{"6", "fig6"} {
		fig, err := FigureByID(id, Options{})
		if err != nil || fig.ID != "fig6" {
			t.Fatalf("FigureByID(%q) = %v, %v", id, fig, err)
		}
	}
	if _, err := FigureByID("fig99", Options{}); err == nil {
		t.Fatal("unknown figure should fail")
	}
	if len(AllFigureIDs()) != 7 {
		t.Fatalf("AllFigureIDs = %v", AllFigureIDs())
	}
}

func TestRenderTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	fig := &Figure{
		ID: "t", Title: "test",
		Tables: []Table{{
			Columns: []string{"a", "long-column"},
			Rows:    [][]string{{"x", "1"}, {"yyyy", "2"}},
		}},
	}
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a     long-column") {
		t.Fatalf("table misaligned:\n%s", buf.String())
	}
}

func TestReplicationsAddErrorBars(t *testing.T) {
	opt := Options{Jobs: 60, TimeScale: 0.01, Seed: 1, Loads: []float64{0.4}, Replications: 3}
	fig, err := Fig8(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if len(s.YErr) != len(s.Y) {
			t.Fatalf("series %q: %d error bars for %d points", s.Label, len(s.YErr), len(s.Y))
		}
		for _, e := range s.YErr {
			if e < 0 {
				t.Fatalf("negative std dev %g", e)
			}
		}
	}
	// With a single replication there are no error bars.
	opt.Replications = 1
	fig, err = Fig8(opt)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Series[0].YErr != nil {
		t.Fatal("single replication should not carry error bars")
	}
}

func TestCheckScorecard(t *testing.T) {
	if testing.Short() {
		t.Skip("scorecard needs a long trace")
	}
	results, err := Check(Options{Jobs: 2500, TimeScale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 9 {
		t.Fatalf("%d checks ran, want 9", len(results))
	}
	pass := 0
	for _, r := range results {
		if r.Pass {
			pass++
		} else {
			t.Logf("claim not reproduced at this scale: %s (%s)", r.Claim, r.Detail)
		}
	}
	// The scorecard is allowed one marginal miss at test scale, but the
	// overwhelming majority of the paper's claims must reproduce.
	if pass < len(results)-1 {
		t.Fatalf("%d/%d claims reproduced", pass, len(results))
	}
	rendered := RenderChecks(results)
	if !strings.Contains(rendered, "claims reproduced") {
		t.Fatal("render missing summary")
	}
}

// TestCheckScorecardSmallTrace: a trace too short to put 8 large jobs in
// the Figure 9/10 band still yields all 9 claims, with both correlation
// claims failing on the "too few large jobs" detail.
func TestCheckScorecardSmallTrace(t *testing.T) {
	results, err := Check(Options{Jobs: 300, TimeScale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 9 {
		t.Fatalf("%d checks ran, want 9", len(results))
	}
	short := 0
	for _, r := range results {
		if strings.Contains(r.Detail, "too few large jobs") {
			if r.Pass {
				t.Fatalf("claim %q passed with detail %q", r.Claim, r.Detail)
			}
			if !strings.Contains(r.Claim, "fig 9") && !strings.Contains(r.Claim, "fig 10") {
				t.Fatalf("unexpected short-trace claim %q", r.Claim)
			}
			short++
		}
	}
	if short != 2 {
		t.Fatalf("%d claims report too few large jobs, want the fig 9 and fig 10 claims", short)
	}
}

func TestWriteCSV(t *testing.T) {
	fig := &Figure{
		ID: "t", Title: "test",
		Series: []Series{{Label: "a b", X: []float64{1, 0.5}, Y: []float64{10, 20}}},
		Tables: []Table{{Columns: []string{"k", "v"}, Rows: [][]string{{"x", "1"}}}},
		Notes:  []string{"hello"},
	}
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"series,x,y", "a b,1,10", "a b,0.5,20", "k,v", "x,1", "# hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("csv missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Jobs != 1500 || o.TimeScale != 0.02 || len(o.Loads) != 5 || o.Parallelism < 1 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestRunGridPropagatesErrors(t *testing.T) {
	_, err := runGrid([]int{1, 2, 3}, 2, func(k int) (int, error) {
		if k == 2 {
			return 0, errTest
		}
		return k, nil
	})
	if err != errTest {
		t.Fatalf("err = %v", err)
	}
}

var errTest = errorString("boom")

type errorString string

func (e errorString) Error() string { return string(e) }

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func sscanf(s, format string, args ...any) (int, error) {
	return fmt.Sscanf(s, format, args...)
}
