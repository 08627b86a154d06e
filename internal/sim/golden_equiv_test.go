package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"meshalloc/internal/trace"
)

// goldenDigest reduces a Result to one FNV-64a hash over every per-job
// field and every summary metric, formatted with %v so the shortest
// round-trippable float representation pins the exact bits.
func goldenDigest(res *Result) string {
	h := fnv.New64a()
	for _, r := range res.Records {
		fmt.Fprintf(h, "%d %d %d %v %v %v %v %v %v %v %v %v %d %t %v\n",
			r.ID, r.Size, r.Quota,
			r.Arrival, r.Start, r.Finish, r.Response, r.RunTime, r.Wait,
			r.AvgPairwise, r.AvgMsgDist, r.QueuedSec,
			r.Components, r.Contiguous, r.Nodes)
	}
	fmt.Fprintf(h, "mean=%v median=%v pctcontig=%v avgcomp=%v makespan=%v util=%v qlen=%v\n",
		res.MeanResponse, res.MedianResponse, res.PctContiguous, res.AvgComponents,
		res.Makespan, res.UtilizationPct, res.MeanQueueLen)
	fmt.Fprintf(h, "net=%v %v %v %v\n",
		res.Net.Messages, res.Net.TotalHops, res.Net.TotalDistSec, res.Net.TotalQueueSec)
	for _, u := range res.NodeUtilization {
		fmt.Fprintf(h, "%v ", u)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenCases are the paper-figure configurations whose batch outputs
// are pinned bit-for-bit across the engine refactor: the 2-D Figure 7/8
// machines, the native 3-D ext-cube3d machine, the EASY scheduler path,
// the sequential-issue ablation with a randomized pattern, and a 2-D and
// a 3-D torus, whose routes wrap.
var goldenCases = []struct {
	name   string
	cfg    Config
	jobs   int
	max    int
	digest string
}{
	{
		name: "fig7-16x22-alltoall-hilbert",
		cfg: Config{MeshW: 16, MeshH: 22, Alloc: "hilbert/bestfit", Pattern: "alltoall",
			Load: 0.2, TimeScale: 0.01, Seed: 1},
		jobs: 300, max: 352,
		digest: "8f7442e91d71fb78",
	},
	{
		name: "fig8-16x16-nbody-mc1x1",
		cfg: Config{MeshW: 16, MeshH: 16, Alloc: "mc1x1", Pattern: "nbody",
			Load: 0.4, TimeScale: 0.01, Seed: 1},
		jobs: 300, max: 256,
		digest: "6cddb4f3b87c185e",
	},
	{
		name: "cube3d-8x8x8-nbody-hilbert",
		cfg: Config{Dims: []int{8, 8, 8}, Alloc: "hilbert/bestfit", Pattern: "nbody",
			Load: 0.2, TimeScale: 0.01, Seed: 1},
		jobs: 300, max: 512,
		digest: "08850c36d3f13630",
	},
	{
		name: "easy-16x16-alltoall-hilbert",
		cfg: Config{MeshW: 16, MeshH: 16, Alloc: "hilbert/bestfit", Pattern: "alltoall",
			Load: 0.4, TimeScale: 0.01, Seed: 1, Scheduler: "easy"},
		jobs: 300, max: 256,
		digest: "8c0bc3cd16040603",
	},
	{
		name: "seq-16x22-random-scurve",
		cfg: Config{MeshW: 16, MeshH: 22, Alloc: "scurve", Pattern: "random",
			Load: 0.6, TimeScale: 0.01, Seed: 1, Issue: IssueSequential},
		jobs: 200, max: 352,
		digest: "172a9d1ff350573c",
	},
	{
		name: "torus-8x8-random-hilbert",
		cfg: Config{MeshW: 8, MeshH: 8, Torus: true, Alloc: "hilbert/bestfit", Pattern: "random",
			Load: 0.6, TimeScale: 0.01, Seed: 1},
		jobs: 400, max: 64,
		digest: "3e9fd94e3b854695",
	},
	{
		name: "torus-4x4x4-nbody-mc1x1",
		cfg: Config{Dims: []int{4, 4, 4}, Torus: true, Alloc: "mc1x1", Pattern: "nbody",
			Load: 0.6, TimeScale: 0.01, Seed: 1},
		jobs: 400, max: 64,
		digest: "a7ae22f51a9610e2",
	},
}

// TestBatchRunGoldenDigests pins Run's batch outputs bit-for-bit against
// digests recorded before the Engine refactor: any change to event
// ordering, float arithmetic, or record contents fails here.
func TestBatchRunGoldenDigests(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.NewSDSC(trace.SDSCConfig{Jobs: tc.jobs, MaxSize: tc.max, Seed: 1}).
				FilterMaxSize(tc.max)
			res, err := Run(tc.cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenDigest(res); got != tc.digest {
				t.Fatalf("digest %s, want %s (batch output changed bit-wise)", got, tc.digest)
			}
		})
	}
}

// engineVariants are the ways every golden run must reproduce its
// digest: the default engine; the invariant auditor after every event,
// whose run-mirror and run-order checks compare the incremental
// scheduler state with what a rebuild from the store would produce; the head-blocked watermark switched off, so no
// scheduler round is ever skipped; and both at once, so the auditor
// also sees the state after every round the watermark would have
// skipped.
var engineVariants = []struct {
	name string
	hook func(*Engine)
}{
	{"default", func(*Engine) {}},
	{"audit-every-1", func(e *Engine) { e.auditEvery = 1 }},
	{"watermark-off", (*Engine).disableWatermark},
	{"audit-every-1+watermark-off", func(e *Engine) {
		e.auditEvery = 1
		e.disableWatermark()
	}},
}

// TestGoldenDigestsAcrossEngineVariants re-runs every golden case under
// each engine variant and requires the identical pinned digest: the
// incremental scheduler state and the watermark must be pure
// performance, indistinguishable in any output bit from their
// references.
func TestGoldenDigestsAcrossEngineVariants(t *testing.T) {
	for _, tc := range goldenCases {
		for _, v := range engineVariants {
			t.Run(tc.name+"/"+v.name, func(t *testing.T) {
				tr := trace.NewSDSC(trace.SDSCConfig{Jobs: tc.jobs, MaxSize: tc.max, Seed: 1}).
					FilterMaxSize(tc.max)
				res, err := runWith(tc.cfg, tr, v.hook)
				if err != nil {
					t.Fatal(err)
				}
				if got := goldenDigest(res); got != tc.digest {
					t.Fatalf("digest %s, want %s (engine variant diverged)", got, tc.digest)
				}
			})
		}
	}
}
