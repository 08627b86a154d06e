package sim

import (
	"math"
	"testing"

	"meshalloc/internal/trace"
)

// burstTrace derives a trace whose arrivals are quantized onto a coarse
// clock so many jobs share exact timestamps: every same-time arrival
// joins one scheduler round, which then dispatches a long runnable
// queue prefix job by job.
func burstTrace(jobs, maxSize int, quantum float64) *trace.Trace {
	tr := trace.NewSDSC(trace.SDSCConfig{Jobs: jobs, MaxSize: maxSize, Seed: 1}).
		FilterMaxSize(maxSize).Clone()
	for i := range tr.Jobs {
		tr.Jobs[i].Arrival = math.Floor(tr.Jobs[i].Arrival/quantum) * quantum
	}
	return tr
}

// burstCases are the burst-heavy runs pinned bit for bit: every
// allocator family, plus SJF (which schedules after each arrival
// instead of once per timestamp). The jobs a multi-job dispatch round
// starts, their nodes and their order are all in the digest.
var burstCases = []struct {
	name   string
	cfg    Config
	jobs   int
	digest string
}{
	{"hilbert-bestfit", Config{MeshW: 16, MeshH: 16, Alloc: "hilbert/bestfit", Pattern: "alltoall",
		Load: 0.4, TimeScale: 0.01, Seed: 1}, 120, "00eedf244edd2006"},
	{"hilbert-firstfit", Config{MeshW: 16, MeshH: 16, Alloc: "hilbert/firstfit", Pattern: "alltoall",
		Load: 0.4, TimeScale: 0.01, Seed: 1}, 120, "bbc7de6a4ea4b6d1"},
	{"mc", Config{MeshW: 16, MeshH: 16, Alloc: "mc", Pattern: "nbody",
		Load: 0.4, TimeScale: 0.01, Seed: 1}, 120, "315fa000451310d1"},
	{"mc1x1", Config{MeshW: 16, MeshH: 16, Alloc: "mc1x1", Pattern: "nbody",
		Load: 0.4, TimeScale: 0.01, Seed: 1}, 120, "9728f42c5cbd4ec7"},
	{"genalg", Config{MeshW: 16, MeshH: 16, Alloc: "genalg", Pattern: "nbody",
		Load: 0.4, TimeScale: 0.01, Seed: 1}, 120, "361b511b3d30d132"},
	{"random", Config{MeshW: 16, MeshH: 16, Alloc: "random", Pattern: "alltoall",
		Load: 0.4, TimeScale: 0.01, Seed: 1}, 120, "c44939f607170672"},
	{"mc-3d", Config{Dims: []int{8, 8, 8}, Alloc: "mc", Pattern: "nbody",
		Load: 0.2, TimeScale: 0.01, Seed: 1}, 120, "71eb34531999fa29"},
	{"sjf-hilbert-bestfit", Config{MeshW: 16, MeshH: 16, Alloc: "hilbert/bestfit", Pattern: "alltoall",
		Load: 0.4, TimeScale: 0.01, Seed: 1, Scheduler: "sjf"}, 100, "dba6556b20baab5c"},
}

// burstCaseTrace is the burst trace for one burstCases entry, sized to
// its machine.
func burstCaseTrace(cfg Config, jobs int) *trace.Trace {
	size := 256
	if cfg.Dims != nil {
		size = 512
	}
	return burstTrace(jobs, size, 500)
}

// TestBurstDigests pins every burst case against its recorded digest.
func TestBurstDigests(t *testing.T) {
	for _, tc := range burstCases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg, burstCaseTrace(tc.cfg, tc.jobs))
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenDigest(res); got != tc.digest {
				t.Fatalf("burst digest %s, want %s", got, tc.digest)
			}
		})
	}
}

// TestBurstDigestsAcrossEngineVariants re-runs every burst case under
// each non-default engine variant. Bursts are where one scheduler round
// starts many jobs back to back, so the auditor's exact free-count and
// mirror checks after every event, and rounds the watermark would have
// skipped, are exercised for every allocator family.
func TestBurstDigestsAcrossEngineVariants(t *testing.T) {
	for _, tc := range burstCases {
		for _, v := range engineVariants[1:] {
			t.Run(tc.name+"/"+v.name, func(t *testing.T) {
				res, err := runWith(tc.cfg, burstCaseTrace(tc.cfg, tc.jobs), v.hook)
				if err != nil {
					t.Fatal(err)
				}
				if got := goldenDigest(res); got != tc.digest {
					t.Fatalf("burst digest %s, want %s (engine variant diverged)", got, tc.digest)
				}
			})
		}
	}
}
