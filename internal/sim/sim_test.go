package sim

import (
	"math"
	"reflect"
	"testing"

	"meshalloc/internal/netsim"
	"meshalloc/internal/trace"
)

// tinyTrace returns a small deterministic workload.
func tinyTrace() *trace.Trace {
	return &trace.Trace{Jobs: []trace.Job{
		{ID: 0, Arrival: 0, Size: 4, Runtime: 20},
		{ID: 1, Arrival: 5, Size: 9, Runtime: 30},
		{ID: 2, Arrival: 10, Size: 2, Runtime: 10},
		{ID: 3, Arrival: 50, Size: 16, Runtime: 40},
	}}
}

func baseConfig() Config {
	return Config{
		MeshW: 8, MeshH: 8,
		Alloc:   "hilbert/bestfit",
		Pattern: "alltoall",
		Seed:    1,
	}
}

func TestRunCompletesAllJobs(t *testing.T) {
	for _, pattern := range []string{"alltoall", "nbody", "random", "ring", "pingpong", "testsuite"} {
		cfg := baseConfig()
		cfg.Pattern = pattern
		res, err := Run(cfg, tinyTrace())
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		if len(res.Records) != 4 {
			t.Fatalf("%s: %d records, want 4", pattern, len(res.Records))
		}
		for _, r := range res.Records {
			if r.Response <= 0 {
				t.Errorf("%s: job %d response %g", pattern, r.ID, r.Response)
			}
			if r.Finish < r.Start || r.Start < r.Arrival {
				t.Errorf("%s: job %d times out of order: %+v", pattern, r.ID, r)
			}
			if r.Quota < 1 {
				t.Errorf("%s: job %d quota %d", pattern, r.ID, r.Quota)
			}
		}
	}
}

func TestRunRejectsOversizedJob(t *testing.T) {
	tr := &trace.Trace{Jobs: []trace.Job{{Size: 65, Runtime: 1}}}
	if _, err := Run(baseConfig(), tr); err == nil {
		t.Fatal("oversized job should be rejected")
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.Alloc = "bogus" },
		func(c *Config) { c.Pattern = "bogus" },
		func(c *Config) { c.Scheduler = "bogus" },
	} {
		cfg := baseConfig()
		mut(&cfg)
		if _, err := Run(cfg, tinyTrace()); err == nil {
			t.Fatal("bad config should fail")
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := baseConfig()
	cfg.Pattern = "random"
	a, err := Run(cfg, tinyTrace())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tinyTrace())
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanResponse != b.MeanResponse {
		t.Fatalf("same config diverged: %g vs %g", a.MeanResponse, b.MeanResponse)
	}
	for i := range a.Records {
		if !reflect.DeepEqual(a.Records[i], b.Records[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestFCFSOrderRespected(t *testing.T) {
	// Two big jobs that cannot run together plus a small one behind
	// them; strict FCFS must start them in arrival order.
	tr := &trace.Trace{Jobs: []trace.Job{
		{ID: 0, Arrival: 0, Size: 40, Runtime: 50},
		{ID: 1, Arrival: 1, Size: 40, Runtime: 50},
		{ID: 2, Arrival: 2, Size: 4, Runtime: 10},
	}}
	res, err := Run(baseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	starts := map[int]float64{}
	for _, r := range res.Records {
		starts[r.ID] = r.Start
	}
	if !(starts[0] <= starts[1] && starts[1] <= starts[2]) {
		t.Fatalf("FCFS start order violated: %v", starts)
	}
	// Job 1 must wait for job 0 to finish.
	if starts[1] == 1 {
		t.Fatal("job 1 started immediately despite job 0 holding the mesh")
	}
}

func TestEASYBackfillsAroundBlockedHead(t *testing.T) {
	tr := &trace.Trace{Jobs: []trace.Job{
		{ID: 0, Arrival: 0, Size: 40, Runtime: 2000},
		{ID: 1, Arrival: 1, Size: 40, Runtime: 50}, // blocked head
		{ID: 2, Arrival: 2, Size: 4, Runtime: 1},   // short: can backfill
	}}
	cfgF := baseConfig()
	resF, err := Run(cfgF, tr)
	if err != nil {
		t.Fatal(err)
	}
	cfgE := baseConfig()
	cfgE.Scheduler = "easy"
	resE, err := Run(cfgE, tr)
	if err != nil {
		t.Fatal(err)
	}
	waitF := map[int]float64{}
	waitE := map[int]float64{}
	for i := range resF.Records {
		waitF[resF.Records[i].ID] = resF.Records[i].Wait
	}
	for i := range resE.Records {
		waitE[resE.Records[i].ID] = resE.Records[i].Wait
	}
	if waitE[2] >= waitF[2] {
		t.Fatalf("EASY should shorten job 2's wait: easy %g vs fcfs %g", waitE[2], waitF[2])
	}
}

func TestQuotaFollowsRuntime(t *testing.T) {
	tr := &trace.Trace{Jobs: []trace.Job{{ID: 0, Arrival: 0, Size: 2, Runtime: 123}}}
	res, err := Run(baseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records[0].Quota != 123 {
		t.Fatalf("quota = %d, want 123", res.Records[0].Quota)
	}
	// Half message rate halves the quota.
	cfg := baseConfig()
	cfg.MsgsPerSecond = 0.5
	res, err = Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records[0].Quota != 62 {
		t.Fatalf("quota at 0.5 msg/s = %d, want 62", res.Records[0].Quota)
	}
}

func TestTimeScaleSelfSimilar(t *testing.T) {
	// Scaling the trace in time scales responses back to roughly the
	// same reported values (quotas round, so allow slack).
	tr := &trace.Trace{Jobs: []trace.Job{
		{ID: 0, Arrival: 0, Size: 8, Runtime: 1000},
		{ID: 1, Arrival: 100, Size: 8, Runtime: 1000},
		{ID: 2, Arrival: 200, Size: 8, Runtime: 1000},
	}}
	full, err := Run(baseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.TimeScale = 0.5
	half, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// The half-scale run does half the messages in half the time; its
	// re-inflated mean response should be within 20% of full scale.
	if rel := math.Abs(half.MeanResponse-full.MeanResponse) / full.MeanResponse; rel > 0.2 {
		t.Fatalf("time scaling broke self-similarity: full %g, half %g (rel %g)",
			full.MeanResponse, half.MeanResponse, rel)
	}
}

func TestLoadContractionIncreasesResponse(t *testing.T) {
	tr := trace.NewSDSC(trace.SDSCConfig{Jobs: 120, MaxSize: 64, Seed: 4})
	cfg := baseConfig()
	cfg.TimeScale = 0.05
	base, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Load = 0.2
	packed, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if packed.MeanResponse <= base.MeanResponse {
		t.Fatalf("5x load should increase mean response: %g vs %g",
			packed.MeanResponse, base.MeanResponse)
	}
}

func TestSequentialSlowerThanPhased(t *testing.T) {
	tr := &trace.Trace{Jobs: []trace.Job{{ID: 0, Arrival: 0, Size: 16, Runtime: 200}}}
	phased, err := Run(baseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Issue = IssueSequential
	seq, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Records[0].RunTime <= phased.Records[0].RunTime {
		t.Fatalf("sequential issue should be slower: %g vs %g",
			seq.Records[0].RunTime, phased.Records[0].RunTime)
	}
}

func TestContiguityMetrics(t *testing.T) {
	// A single job on an empty mesh under hilbert/bestfit is contiguous.
	tr := &trace.Trace{Jobs: []trace.Job{{ID: 0, Arrival: 0, Size: 16, Runtime: 10}}}
	res, err := Run(baseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Records[0].Contiguous || res.Records[0].Components != 1 {
		t.Fatalf("single hilbert job should be contiguous: %+v", res.Records[0])
	}
	if res.PctContiguous != 100 {
		t.Fatalf("PctContiguous = %g", res.PctContiguous)
	}
	if res.AvgComponents != 1 {
		t.Fatalf("AvgComponents = %g", res.AvgComponents)
	}
}

func TestRecordsMetricsPopulated(t *testing.T) {
	res, err := Run(baseConfig(), tinyTrace())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		if r.Size > 1 && r.AvgPairwise <= 0 {
			t.Errorf("job %d: AvgPairwise %g", r.ID, r.AvgPairwise)
		}
		if r.Size > 1 && r.AvgMsgDist <= 0 {
			t.Errorf("job %d: AvgMsgDist %g", r.ID, r.AvgMsgDist)
		}
	}
	if res.Net.Messages == 0 {
		t.Error("network stats empty")
	}
	if res.Makespan <= 0 {
		t.Error("makespan not set")
	}
}

func TestCustomNetworkConfigUsed(t *testing.T) {
	tr := &trace.Trace{Jobs: []trace.Job{{ID: 0, Arrival: 0, Size: 8, Runtime: 50}}}
	slow := baseConfig()
	slow.Net = netsim.Config{MessageFlits: 64, FlitCycle: 0.1, HopLatency: 0.01, LocalDelay: 0.001}
	fast := baseConfig()
	fast.Net = netsim.Config{MessageFlits: 64, FlitCycle: 0.001, HopLatency: 0.001, LocalDelay: 0.001}
	rs, err := Run(slow, tr)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Run(fast, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Records[0].RunTime <= rf.Records[0].RunTime {
		t.Fatal("slower network should lengthen job runtime")
	}
}

func TestContiguousAllocatorsEndToEnd(t *testing.T) {
	// Contiguous allocators can refuse on fragmentation; the simulator
	// must keep the job queued and drain the whole workload anyway.
	// The digests pin the two allocators' placements bit for bit.
	tr := trace.NewSDSC(trace.SDSCConfig{Jobs: 80, MaxSize: 64, Seed: 9})
	for _, tc := range []struct{ spec, digest string }{
		{"submesh", "0df756e2256b1d13"},
		{"buddy", "4da476a273c74229"},
	} {
		spec := tc.spec
		cfg := baseConfig()
		cfg.Alloc = spec
		cfg.TimeScale = 0.01
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if len(res.Records) != 80 {
			t.Fatalf("%s: %d records", spec, len(res.Records))
		}
		// Contiguous by construction.
		for _, r := range res.Records {
			if !r.Contiguous {
				t.Fatalf("%s: job %d not contiguous", spec, r.ID)
			}
		}
		if got := goldenDigest(res); got != tc.digest {
			t.Errorf("%s: digest %s, want %s", spec, got, tc.digest)
		}
	}
}

func TestPagedPagingEndToEnd(t *testing.T) {
	tr := trace.NewSDSC(trace.SDSCConfig{Jobs: 80, MaxSize: 64, Seed: 9})
	cfg := baseConfig()
	cfg.Alloc = "hilbert/freelist/page1"
	cfg.TimeScale = 0.01
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 80 {
		t.Fatalf("%d records", len(res.Records))
	}
}

func TestMixedPatternEndToEnd(t *testing.T) {
	cfg := baseConfig()
	cfg.Pattern = "mixed"
	res, err := Run(cfg, tinyTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Fatalf("%d records", len(res.Records))
	}
}

func TestRecordsIncludeAllocationNodes(t *testing.T) {
	res, err := Run(baseConfig(), tinyTrace())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		if len(r.Nodes) != r.Size {
			t.Fatalf("job %d: %d nodes for size %d", r.ID, len(r.Nodes), r.Size)
		}
		for i := 1; i < len(r.Nodes); i++ {
			if r.Nodes[i] <= r.Nodes[i-1] {
				t.Fatalf("job %d: nodes not sorted unique: %v", r.ID, r.Nodes)
			}
		}
	}
}

func TestNodeUtilizationPopulated(t *testing.T) {
	res, err := Run(baseConfig(), tinyTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeUtilization) != 64 {
		t.Fatalf("utilization length %d", len(res.NodeUtilization))
	}
	any := false
	for _, u := range res.NodeUtilization {
		if u < 0 || math.IsNaN(u) || math.IsInf(u, 0) {
			t.Fatalf("utilization %g out of range", u)
		}
		if u > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no link ever utilized")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	// One job holding 16 of 64 processors for its whole life: while it
	// runs, utilization is 25%; averaged over its makespan (arrival at
	// 0, starts immediately) it is exactly 25% up to the finish.
	tr := &trace.Trace{Jobs: []trace.Job{{ID: 0, Arrival: 0, Size: 16, Runtime: 100}}}
	res, err := Run(baseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.UtilizationPct-25) > 1.0 {
		t.Fatalf("UtilizationPct = %g, want ~25", res.UtilizationPct)
	}
	if res.MeanQueueLen != 0 {
		t.Fatalf("MeanQueueLen = %g, want 0 (no waiting)", res.MeanQueueLen)
	}
}

func TestContiguousAllocatorLowersUtilization(t *testing.T) {
	// The paper's Section 2 claim: convex-only allocation reduces
	// system utilization. Size-17 jobs round up to the whole 8x8 mesh
	// under the buddy system (internal fragmentation), forcing serial
	// execution, while the noncontiguous allocator runs three at once.
	var jobs []trace.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, trace.Job{ID: i, Arrival: float64(i), Size: 17, Runtime: 300})
	}
	tr := &trace.Trace{Jobs: jobs}
	free, err := Run(baseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Alloc = "buddy"
	contig, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if contig.MeanQueueLen <= free.MeanQueueLen {
		t.Fatalf("buddy should queue more: %g vs %g", contig.MeanQueueLen, free.MeanQueueLen)
	}
	if contig.MeanResponse <= free.MeanResponse {
		t.Fatalf("buddy should respond slower: %g vs %g", contig.MeanResponse, free.MeanResponse)
	}
	if contig.UtilizationPct >= free.UtilizationPct+1 {
		t.Fatalf("buddy should not raise utilization: %g vs %g",
			contig.UtilizationPct, free.UtilizationPct)
	}
}

func TestRoutingConfigEndToEnd(t *testing.T) {
	tr := tinyTrace()
	for _, r := range []netsim.Routing{netsim.RouteXY, netsim.RouteYX, netsim.RouteAdaptive} {
		cfg := baseConfig()
		cfg.Net = netsim.DefaultConfig()
		cfg.Net.Routing = r
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if len(res.Records) != 4 {
			t.Fatalf("%v: %d records", r, len(res.Records))
		}
	}
}

func TestTorusShortensMessages(t *testing.T) {
	// One job spanning opposite mesh edges: wraparound links shorten
	// its messages, so the torus job finishes no later than the mesh
	// job under the same allocator and pattern.
	tr := &trace.Trace{Jobs: []trace.Job{{ID: 0, Arrival: 0, Size: 64, Runtime: 300}}}
	meshCfg := baseConfig()
	meshRes, err := Run(meshCfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	torusCfg := baseConfig()
	torusCfg.Torus = true
	torusRes, err := Run(torusCfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if torusRes.Net.AvgHops() > meshRes.Net.AvgHops() {
		t.Fatalf("torus avg hops %g should not exceed mesh %g",
			torusRes.Net.AvgHops(), meshRes.Net.AvgHops())
	}
}

func TestIssueModeString(t *testing.T) {
	if IssuePhased.String() != "phased" || IssueSequential.String() != "sequential" {
		t.Fatal("IssueMode.String mismatch")
	}
}

// TestDimsCompatibilityPath pins the 2-D compatibility contract of the
// dimension-generic topology layer: Dims{w, h} and MeshW/MeshH describe
// the same machine and must produce byte-for-byte identical results.
func TestDimsCompatibilityPath(t *testing.T) {
	legacy := baseConfig()
	legacy.Pattern = "nbody"
	viaDims := legacy
	viaDims.MeshW, viaDims.MeshH = 0, 0
	viaDims.Dims = []int{8, 8}
	r1, err := Run(legacy, tinyTrace())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(viaDims, tinyTrace())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Records, r2.Records) {
		t.Fatal("Dims{8,8} diverges from MeshW/MeshH 8x8")
	}
	if r1.MeanResponse != r2.MeanResponse || r1.Net != r2.Net {
		t.Fatal("summary metrics diverge between Dims and MeshW/MeshH")
	}
}

// TestRunOn3DMesh runs the full contention simulation natively on a 3-D
// machine for a cross-section of allocator families.
func TestRunOn3DMesh(t *testing.T) {
	for _, spec := range []string{"hilbert", "hilbert/bestfit", "scurve", "mc", "mc1x1", "genalg", "random", "proj2d-hilbert", "rowmajor/freelist/page1"} {
		cfg := Config{
			Dims:    []int{4, 4, 4},
			Alloc:   spec,
			Pattern: "nbody",
			Seed:    1,
		}
		res, err := Run(cfg, tinyTrace())
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if len(res.Records) != 4 {
			t.Fatalf("%s: %d records, want 4", spec, len(res.Records))
		}
		for _, r := range res.Records {
			if r.Response <= 0 || r.Components < 1 {
				t.Errorf("%s: bad record %+v", spec, r)
			}
			for _, id := range r.Nodes {
				if id < 0 || id >= 64 {
					t.Errorf("%s: node id %d off the 4x4x4 machine", spec, id)
				}
			}
		}
		if res.Net.Messages == 0 {
			t.Errorf("%s: no messages simulated", spec)
		}
		if len(res.NodeUtilization) != 64 {
			t.Errorf("%s: utilization length %d", spec, len(res.NodeUtilization))
		}
	}
}

// TestRunOn3DTorus exercises wraparound routing on a 3-D machine.
func TestRunOn3DTorus(t *testing.T) {
	cfg := Config{
		Dims:    []int{4, 4, 4},
		Torus:   true,
		Alloc:   "hilbert",
		Pattern: "alltoall",
		Seed:    1,
	}
	res, err := Run(cfg, tinyTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Fatalf("%d records, want 4", len(res.Records))
	}
}

// TestRun3DRejects2DOnlyAllocators pins the gating of inherently 2-D
// strategies on higher-dimensional machines.
func TestRun3DRejects2DOnlyAllocators(t *testing.T) {
	for _, spec := range []string{"buddy", "submesh", "hindex", "moore"} {
		cfg := Config{Dims: []int{4, 4, 4}, Alloc: spec, Pattern: "nbody", Seed: 1}
		if _, err := Run(cfg, tinyTrace()); err == nil {
			t.Errorf("%s should be rejected on a 3-D machine", spec)
		}
	}
}

// TestRunRejectsBadDims pins extent validation.
func TestRunRejectsBadDims(t *testing.T) {
	cfg := Config{Dims: []int{8, 0, 8}, Alloc: "hilbert", Pattern: "nbody", Seed: 1}
	if _, err := Run(cfg, tinyTrace()); err == nil {
		t.Fatal("zero extent should be rejected")
	}
}

// TestRunRejectsTooManyDims pins the error (not panic) contract for
// over-long Dims.
func TestRunRejectsTooManyDims(t *testing.T) {
	cfg := Config{Dims: []int{2, 2, 2, 2, 2}, Alloc: "hilbert", Pattern: "nbody", Seed: 1}
	if _, err := Run(cfg, tinyTrace()); err == nil {
		t.Fatal("5-D machine should be rejected with an error")
	}
}
