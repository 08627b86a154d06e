package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// tinySizes runs every workload in well under a second, through the
// same code as fullSizes.
var tinySizes = sizes{
	poissonJobs:      3000,
	poissonReplay:    1000,
	poissonSnapEvery: 1000,
	fig7Jobs:         40,
	fig7SnapEvery:    500,
	alloc3dJobs:      60,
	alloc3dSnapEvery: 200,
	faultJobs:        600,
	ckptEvery:        200,
	restoreAt:        3,
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
		Workload []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	var names []string
	for _, w := range spec.Workload {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloadNames())
	}
	return endToEnd, perLayer
}

func metricNames(r result) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// TestWorkloads runs every workload untraced and traced at a tiny size:
// every check must pass, and the metrics printed must be exactly the
// ones BENCHMARK.json declares.
func TestWorkloads(t *testing.T) {
	endToEnd, perLayer := declared(t)
	slices.Sort(endToEnd)
	slices.Sort(perLayer)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			r, err := measure(&out, w, tinySizes, 1, 0.001, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed\n%s", w.name, traced, r.Correct, r.Failed, r.Attempted, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if got := metricNames(r); !slices.Equal(got, want) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json declares %v", w.name, traced, got, want)
			}
			for n, m := range r.Metrics {
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %v", w.name, n, m.Value)
				}
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99}, {1000, 99}, {999, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSamplerSummary(t *testing.T) {
	var s sampler
	for i := 1; i <= 1000; i++ {
		s.add(float64(i))
	}
	sum := s.summary()
	if sum.p50 != 500 || sum.tail != 990 || sum.tailP != 99 || sum.count != 1000 {
		t.Errorf("summary %+v, want p50 500, p99 990 over 1000", sum)
	}
}

func TestSelectWorkloads(t *testing.T) {
	if ws, err := selectWorkloads("all"); err != nil || len(ws) != len(workloads) {
		t.Errorf("all: %d workloads, %v", len(ws), err)
	}
	_, err := selectWorkloads("nope")
	if err == nil || !strings.Contains(err.Error(), strings.Join(workloadNames(), ", ")) {
		t.Errorf("unknown workload error %v does not list the valid names", err)
	}
}
