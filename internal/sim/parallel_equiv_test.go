package sim

import (
	"testing"

	"meshalloc/internal/trace"
)

// TestParallelScoringGoldenDigests reruns the pinned golden
// configurations with parallel candidate scoring enabled: the digests
// must not move by a bit. Allocators without a parallel path must
// ignore the knob just as exactly.
func TestParallelScoringGoldenDigests(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.NewSDSC(trace.SDSCConfig{Jobs: tc.jobs, MaxSize: tc.max, Seed: 1}).
				FilterMaxSize(tc.max)
			cfg := tc.cfg
			cfg.AllocWorkers = 4
			res, err := Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenDigest(res); got != tc.digest {
				t.Fatalf("AllocWorkers=4 digest %s, want %s (parallel scoring changed the simulation)", got, tc.digest)
			}
		})
	}
}

// TestParallelScoringWorkerCountInvariance drives Gen-Alg, the one
// allocator with a parallel scan, through full simulations at several
// worker counts and checks the digests agree with the sequential run —
// the fabric's core promise that worker count is a pure wall-clock knob.
func TestParallelScoringWorkerCountInvariance(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"genalg-16x16-nbody", Config{MeshW: 16, MeshH: 16, Alloc: "genalg", Pattern: "nbody",
			Load: 0.4, TimeScale: 0.01, Seed: 1}},
		{"genalg-8x8x8-nbody", Config{Dims: []int{8, 8, 8}, Alloc: "genalg", Pattern: "nbody",
			Load: 0.2, TimeScale: 0.01, Seed: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			size := 256
			if tc.cfg.Dims != nil {
				size = 512
			}
			tr := trace.NewSDSC(trace.SDSCConfig{Jobs: 150, MaxSize: size, Seed: 1}).
				FilterMaxSize(size)
			run := func(workers int) string {
				cfg := tc.cfg
				cfg.AllocWorkers = workers
				res, err := Run(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				return goldenDigest(res)
			}
			want := run(1)
			for _, workers := range []int{2, 4, 7} {
				if got := run(workers); got != want {
					t.Fatalf("workers=%d digest %s, want sequential %s", workers, got, want)
				}
			}
		})
	}
}
