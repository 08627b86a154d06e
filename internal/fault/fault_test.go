package fault

import (
	"math"
	"reflect"
	"testing"

	"meshalloc/internal/stats"
)

// schedule materializes every event of s with T < horizon, consuming
// the stream.
func schedule(s *Stream, horizon float64) []Event {
	var out []Event
	for {
		ev, ok := s.Peek()
		if !ok || ev.T >= horizon {
			return out
		}
		s.Next()
		out = append(out, ev)
	}
}

func expCfg(seed int64, mtbf, mttr float64) Config {
	return Config{
		Seed: seed,
		MTBF: Dist{Kind: DistExponential, Mean: mtbf},
		MTTR: Dist{Kind: DistExponential, Mean: mttr},
	}
}

// TestStreamDeterministic pins the core reproducibility contract: the
// schedule is a pure function of (config, n).
func TestStreamDeterministic(t *testing.T) {
	cfg := expCfg(42, 1000, 100)
	a, err := NewStream(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStream(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := schedule(a, 20000), schedule(b, 20000)
	if len(sa) == 0 {
		t.Fatal("expected events in 20 MTBF horizons over 64 nodes")
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("same config produced different schedules: %d vs %d events", len(sa), len(sb))
	}
}

// TestStreamPerNodeIndependence: node k's events depend only on (seed,
// k), never on the machine size, because each node owns its own
// derived generator. A 4-node stream must be the node<4 projection of
// an 8-node stream.
func TestStreamPerNodeIndependence(t *testing.T) {
	cfg := expCfg(7, 500, 50)
	small, _ := NewStream(cfg, 4)
	big, _ := NewStream(cfg, 8)
	var proj []Event
	for _, ev := range schedule(big, 10000) {
		if ev.Node < 4 {
			proj = append(proj, ev)
		}
	}
	if got := schedule(small, 10000); !reflect.DeepEqual(got, proj) {
		t.Fatalf("small-machine schedule is not the projection of the large one:\n got %v\nwant %v", got, proj)
	}
}

// TestStreamAlternates: per node the event sequence strictly
// alternates down/up with increasing times.
func TestStreamAlternates(t *testing.T) {
	s, _ := NewStream(expCfg(3, 200, 40), 16)
	lastKind := make(map[int]Kind)
	lastT := make(map[int]float64)
	n := 0
	for {
		ev, ok := s.Next()
		if !ok || ev.T > 5000 {
			break
		}
		n++
		if k, seen := lastKind[ev.Node]; seen {
			if k == ev.Kind {
				t.Fatalf("node %d: consecutive %v events", ev.Node, ev.Kind)
			}
			if ev.T <= lastT[ev.Node] {
				t.Fatalf("node %d: non-increasing times %v -> %v", ev.Node, lastT[ev.Node], ev.T)
			}
		} else if ev.Kind != NodeDown {
			t.Fatalf("node %d: first event is %v, want down", ev.Node, ev.Kind)
		}
		lastKind[ev.Node] = ev.Kind
		lastT[ev.Node] = ev.T
	}
	if n < 100 {
		t.Fatalf("expected a dense schedule, got %d events", n)
	}
}

// TestStreamGlobalOrder: the merged stream is non-decreasing in time.
func TestStreamGlobalOrder(t *testing.T) {
	s, _ := NewStream(expCfg(9, 100, 10), 32)
	last := -1.0
	for i := 0; i < 2000; i++ {
		ev, ok := s.Next()
		if !ok {
			break
		}
		if ev.T < last {
			t.Fatalf("event %d out of order: %v after %v", i, ev.T, last)
		}
		last = ev.T
	}
}

// TestStreamScript: scripted drains merge at their times; ties against
// random events resolve script-first; script-only streams terminate.
func TestStreamScript(t *testing.T) {
	script := []Event{
		{T: 50, Node: 3, Kind: NodeDrain},
		{T: 10, Node: 1, Kind: NodeDrain},
		{T: 60, Node: 3, Kind: NodeUndrain},
	}
	s, err := NewStream(Config{Script: script}, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := schedule(s, math.Inf(1))
	want := []Event{
		{T: 10, Node: 1, Kind: NodeDrain},
		{T: 50, Node: 3, Kind: NodeDrain},
		{T: 60, Node: 3, Kind: NodeUndrain},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("script schedule %v, want %v", got, want)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("script-only stream should be exhausted")
	}
}

// TestStreamPermanentFailures: a disabled MTTR means each node fails
// exactly once and never recovers.
func TestStreamPermanentFailures(t *testing.T) {
	cfg := Config{Seed: 5, MTBF: Dist{Kind: DistExponential, Mean: 100}}
	s, err := NewStream(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	evs := schedule(s, math.Inf(1))
	if len(evs) != 16 {
		t.Fatalf("got %d events, want one permanent failure per node", len(evs))
	}
	seen := map[int]bool{}
	for _, ev := range evs {
		if ev.Kind != NodeDown {
			t.Fatalf("unexpected %v", ev)
		}
		if seen[ev.Node] {
			t.Fatalf("node %d failed twice without repair", ev.Node)
		}
		seen[ev.Node] = true
	}
}

// TestDistMeans: empirical lifetime means land near the configured
// mean for both families (law of large numbers sanity, not a
// distribution test).
func TestDistMeans(t *testing.T) {
	for _, d := range []Dist{
		{Kind: DistExponential, Mean: 250},
		{Kind: DistWeibull, Mean: 250, Shape: 0.7},
		{Kind: DistWeibull, Mean: 250, Shape: 2.0},
	} {
		scale := d.scale()
		rng := stats.NewSplitmix64(11)
		sum := 0.0
		const n = 200000
		for i := 0; i < n; i++ {
			sum += d.sample(scale, rng.Float64())
		}
		got := sum / n
		if math.Abs(got-d.Mean) > 0.03*d.Mean {
			t.Errorf("%+v: empirical mean %.1f, want ~%.0f", d, got, d.Mean)
		}
	}
}

// TestRetryPolicy pins Allow/Delay semantics.
func TestRetryPolicy(t *testing.T) {
	none := Retry{Kind: RetryNone}
	if none.Allow(1) {
		t.Error("none must not retry")
	}
	imm := Retry{Kind: RetryImmediate, MaxAttempts: 2}
	if !imm.Allow(1) || !imm.Allow(2) || imm.Allow(3) {
		t.Error("immediate:2 must allow exactly 2 restarts")
	}
	if d := imm.Delay(1); d != 0 {
		t.Errorf("immediate delay = %v, want 0", d)
	}
	bo := Retry{Kind: RetryBackoff, Base: 10, Cap: 55}
	wants := []float64{10, 20, 40, 55, 55}
	for i, want := range wants {
		if got := bo.Delay(i + 1); got != want {
			t.Errorf("backoff delay(%d) = %v, want %v", i+1, got, want)
		}
	}
	if !bo.Allow(1000) {
		t.Error("unlimited backoff must always allow")
	}
}

func TestParseDist(t *testing.T) {
	cases := []struct {
		in   string
		want Dist
	}{
		{"", Dist{}},
		{"3600", Dist{Kind: DistExponential, Mean: 3600}},
		{"exp:250.5", Dist{Kind: DistExponential, Mean: 250.5}},
		{"weibull:100,0.7", Dist{Kind: DistWeibull, Mean: 100, Shape: 0.7}},
	}
	for _, c := range cases {
		got, err := ParseDist(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseDist(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"-1", "0", "exp:", "exp:abc", "exp:inf", "exp:nan", "weibull:100", "weibull:100,0", "gamma:5", "weibull:1,2,3"} {
		if d, err := ParseDist(bad); err == nil {
			t.Errorf("ParseDist(%q) = %+v, want error", bad, d)
		}
	}
}

func TestParseRetry(t *testing.T) {
	cases := []struct {
		in   string
		want Retry
	}{
		{"", Retry{Kind: RetryImmediate}},
		{"none", Retry{Kind: RetryNone}},
		{"immediate", Retry{Kind: RetryImmediate}},
		{"immediate:3", Retry{Kind: RetryImmediate, MaxAttempts: 3}},
		{"backoff:10,300", Retry{Kind: RetryBackoff, Base: 10, Cap: 300}},
		{"backoff:10,300,5", Retry{Kind: RetryBackoff, Base: 10, Cap: 300, MaxAttempts: 5}},
	}
	for _, c := range cases {
		got, err := ParseRetry(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseRetry(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"bogus", "none:1", "immediate:0", "immediate:x", "backoff:10", "backoff:0,5", "backoff:10,5", "backoff:1,2,0", "backoff:1,2,3,4"} {
		if r, err := ParseRetry(bad); err == nil {
			t.Errorf("ParseRetry(%q) = %+v, want error", bad, r)
		}
	}
}
