package sim

import (
	"errors"
	"testing"

	"meshalloc/internal/fault"
	"meshalloc/internal/trace"
)

// faultTrace builds a small closed-system workload for fault runs.
func faultTrace(jobs, maxSize int) *trace.Trace {
	return trace.NewSDSC(trace.SDSCConfig{Jobs: jobs, MaxSize: maxSize, Seed: 1}).
		FilterMaxSize(maxSize)
}

// TestFaultScriptKillAndRetry: a scripted failure under a running job
// kills it, the retry policy restarts it, and it completes on the
// repaired machine. Every fault counter must line up.
func TestFaultScriptKillAndRetry(t *testing.T) {
	cfg := Config{
		MeshW: 8, MeshH: 8,
		Alloc: "hilbert/bestfit", Pattern: "nbody", Seed: 1,
		Faults: fault.Config{Script: []fault.Event{
			{T: 5, Node: 0, Kind: fault.NodeDown},
			{T: 6, Node: 0, Kind: fault.NodeUp},
		}},
		Retry: fault.Retry{Kind: fault.RetryImmediate},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One 64-processor job: it must occupy node 0, so the scripted
	// failure is guaranteed to hit it mid-run.
	if err := e.Submit(trace.Job{ID: 1, Arrival: 0, Runtime: 100, Size: 64}); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if e.Deadlocked() {
		t.Fatal("deadlocked")
	}
	res := e.Result()
	if res.Killed != 1 || res.Retried != 1 || res.GivenUp != 0 {
		t.Fatalf("killed/retried/givenup = %d/%d/%d, want 1/1/0", res.Killed, res.Retried, res.GivenUp)
	}
	if res.Jobs != 1 {
		t.Fatalf("finished %d jobs, want 1", res.Jobs)
	}
	if res.WastedPct <= 0 || res.WastedPct >= 100 {
		t.Fatalf("WastedPct = %v, want in (0,100)", res.WastedPct)
	}
	if res.DownPct <= 0 {
		t.Fatalf("DownPct = %v, want > 0", res.DownPct)
	}
	if res.GoodputPct <= 0 || res.GoodputPct >= res.UtilizationPct {
		t.Fatalf("GoodputPct = %v, want in (0, util=%v)", res.GoodputPct, res.UtilizationPct)
	}
	// The sole record must describe the restarted attempt: killed at 5,
	// and a 64-processor job cannot restart before the repair at 6 —
	// while Response still spans back to the original arrival at 0.
	if r := res.Records[0]; r.Start < 6 || r.Response < r.Finish {
		t.Fatalf("record start=%v finish=%v response=%v does not span the retry",
			r.Start, r.Finish, r.Response)
	}
}

// TestFaultGiveUp: with retries disabled the killed job is abandoned
// and the run still terminates cleanly.
func TestFaultGiveUp(t *testing.T) {
	cfg := Config{
		MeshW: 8, MeshH: 8,
		Alloc: "mc1x1", Pattern: "nbody", Seed: 1,
		Faults: fault.Config{Script: []fault.Event{
			{T: 5, Node: 0, Kind: fault.NodeDown},
		}},
		Retry: fault.Retry{Kind: fault.RetryNone},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(trace.Job{ID: 1, Arrival: 0, Runtime: 100, Size: 64}); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	res := e.Result()
	if res.Killed != 1 || res.Retried != 0 || res.GivenUp != 1 {
		t.Fatalf("killed/retried/givenup = %d/%d/%d, want 1/0/1", res.Killed, res.Retried, res.GivenUp)
	}
	if res.Jobs != 0 {
		t.Fatalf("finished %d jobs, want 0", res.Jobs)
	}
	if e.Deadlocked() {
		t.Fatal("an abandoned job must not read as deadlock")
	}
}

// TestFaultMaxAttempts: a node that fails permanently at each restart
// exhausts the attempt bound. Node 0 goes down before arrival and
// never recovers, so a full-machine job can never start; a half-size
// job placed away from node 0 still runs.
func TestFaultMaxAttempts(t *testing.T) {
	cfg := Config{
		MeshW: 4, MeshH: 4,
		Alloc: "hilbert/bestfit", Pattern: "nbody", Seed: 1,
		Faults: fault.Config{Script: []fault.Event{
			{T: 1, Node: 2, Kind: fault.NodeDown},
			{T: 2, Node: 2, Kind: fault.NodeUp},
			{T: 3, Node: 3, Kind: fault.NodeDown},
			{T: 4, Node: 3, Kind: fault.NodeUp},
			{T: 5, Node: 5, Kind: fault.NodeDown},
			{T: 6, Node: 5, Kind: fault.NodeUp},
		}},
		Retry: fault.Retry{Kind: fault.RetryImmediate, MaxAttempts: 2},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(trace.Job{ID: 7, Arrival: 0, Runtime: 50, Size: 16}); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	res := e.Result()
	if res.Killed != 3 || res.Retried != 2 || res.GivenUp != 1 {
		t.Fatalf("killed/retried/givenup = %d/%d/%d, want 3/2/1", res.Killed, res.Retried, res.GivenUp)
	}
	if res.Jobs != 0 {
		t.Fatalf("finished %d jobs, want 0", res.Jobs)
	}
}

// TestFaultMaskExcludesDownNodes: a node failed before any arrival
// must appear in no allocation, and a repaired node becomes placeable
// again.
func TestFaultMaskExcludesDownNodes(t *testing.T) {
	for _, spec := range []string{"hilbert/bestfit", "scurve", "mc", "mc1x1", "genalg", "random"} {
		t.Run(spec, func(t *testing.T) {
			cfg := Config{
				MeshW: 8, MeshH: 8,
				Alloc: spec, Pattern: "nbody", Seed: 1,
				Faults: fault.Config{Script: []fault.Event{
					{T: 0, Node: 27, Kind: fault.NodeDown},
					{T: 1000000, Node: 27, Kind: fault.NodeUp},
				}},
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.Observe(func(r JobRecord) {
				if r.Finish <= 1000000 {
					for _, id := range r.Nodes {
						if id == 27 {
							t.Errorf("job %d allocated on downed node 27", r.ID)
						}
					}
				}
			})
			for _, j := range faultTrace(120, 63).Jobs {
				if err := e.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			// A 63-processor job (machine size minus the downed node)
			// must still be placeable: the mask leaves 63 free.
			e.Drain()
			if e.Deadlocked() {
				t.Fatal("deadlocked")
			}
			if e.Result().Jobs != 120 {
				t.Fatalf("finished %d, want 120", e.Result().Jobs)
			}
		})
	}
}

// TestFaultDrainLetsJobsFinish: draining an occupied node does not
// kill its job; the node is masked at the job's release and admits no
// new work until undrained.
func TestFaultDrainLetsJobsFinish(t *testing.T) {
	cfg := Config{
		MeshW: 4, MeshH: 4,
		Alloc: "hilbert/bestfit", Pattern: "nbody", Seed: 1,
		Faults: fault.Config{Script: []fault.Event{
			{T: 5, Node: 0, Kind: fault.NodeDrain},
		}},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(trace.Job{ID: 1, Arrival: 0, Runtime: 50, Size: 16}); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	res := e.Result()
	if res.Killed != 0 || res.Jobs != 1 {
		t.Fatalf("killed=%d jobs=%d, want 0 kills and 1 finish", res.Killed, res.Jobs)
	}
	if free := e.NumFree(); free != 15 {
		t.Fatalf("NumFree after drain = %d, want 15 (node 0 masked)", free)
	}
}

// TestOversizeTypedError: Submit rejects impossible jobs with an
// *OversizeError matching the ErrOversize sentinel — fail fast instead
// of deadlocking at Drain.
func TestOversizeTypedError(t *testing.T) {
	e, err := NewEngine(Config{MeshW: 4, MeshH: 4, Alloc: "hilbert/bestfit", Pattern: "nbody"})
	if err != nil {
		t.Fatal(err)
	}
	err = e.Submit(trace.Job{ID: 9, Arrival: 0, Runtime: 1, Size: 17})
	if err == nil {
		t.Fatal("oversize job accepted")
	}
	if !errors.Is(err, ErrOversize) {
		t.Fatalf("error %v does not match ErrOversize", err)
	}
	var oe *OversizeError
	if !errors.As(err, &oe) || oe.ID != 9 || oe.Size != 17 || oe.Capacity != 16 || oe.Strict {
		t.Fatalf("unexpected OversizeError %+v", oe)
	}
}

// TestStrictCapacitySubmit: with StrictCapacity, Submit also rejects
// jobs larger than the currently available node count.
func TestStrictCapacitySubmit(t *testing.T) {
	cfg := Config{
		MeshW: 4, MeshH: 4,
		Alloc: "hilbert/bestfit", Pattern: "nbody", Seed: 1,
		Faults: fault.Config{
			StrictCapacity: true,
			Script: []fault.Event{
				{T: 0, Node: 1, Kind: fault.NodeDown},
				{T: 0, Node: 2, Kind: fault.NodeDrain},
			},
		},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(1)
	err = e.Submit(trace.Job{ID: 3, Arrival: 1, Runtime: 1, Size: 15})
	if err == nil {
		t.Fatal("job above available capacity accepted under StrictCapacity")
	}
	var oe *OversizeError
	if !errors.As(err, &oe) || !oe.Strict || oe.Capacity != 14 {
		t.Fatalf("unexpected error %v", err)
	}
	if err := e.Submit(trace.Job{ID: 4, Arrival: 1, Runtime: 1, Size: 14}); err != nil {
		t.Fatalf("job at available capacity rejected: %v", err)
	}
	e.Drain()
}

// TestFaultAllocatorGate: allocators that cannot mask nodes are
// rejected at construction, not at the first failure. Submesh can mask
// (its row bitmasks treat a downed node like a busy one), so it passes
// the gate; buddy's power-of-two block ledger and the paged free list
// cannot represent a single dead node and stay gated.
func TestFaultAllocatorGate(t *testing.T) {
	for _, spec := range []string{"buddy", "hilbert/freelist/page1"} {
		cfg := Config{
			MeshW: 8, MeshH: 8,
			Alloc: spec, Pattern: "nbody",
			Faults: fault.Config{MTBF: fault.Dist{Kind: fault.DistExponential, Mean: 100}},
		}
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("allocator %s accepted under fault injection", spec)
		}
		cfg.Faults = fault.Config{}
		if _, err := NewEngine(cfg); err != nil {
			t.Errorf("allocator %s rejected without faults: %v", spec, err)
		}
	}
	// Submesh is fault-aware: construction must succeed.
	if _, err := NewEngine(Config{
		MeshW: 8, MeshH: 8,
		Alloc: "submesh", Pattern: "nbody",
		Faults: fault.Config{MTBF: fault.Dist{Kind: fault.DistExponential, Mean: 100}},
	}); err != nil {
		t.Errorf("submesh rejected under fault injection: %v", err)
	}
}

// faultyCfg is the random-failure configuration the determinism suites
// share: exponential failures dense enough to kill jobs, quick
// repairs, and a bounded retry policy so the run terminates even if a
// long job keeps getting unlucky.
func faultyCfg(alloc string) Config {
	return Config{
		MeshW: 8, MeshH: 8,
		Alloc: alloc, Pattern: "nbody",
		Load: 0.4, TimeScale: 0.01, Seed: 1,
		Faults: fault.Config{
			MTBF: fault.Dist{Kind: fault.DistExponential, Mean: 300000},
			MTTR: fault.Dist{Kind: fault.DistExponential, Mean: 10000},
		},
		Retry: fault.Retry{Kind: fault.RetryBackoff, Base: 60, Cap: 3600, MaxAttempts: 4},
	}
}

// TestFaultRunDeterministic: a fault-injected closed run is a pure
// function of its config — same digest run to run — and it actually
// exercises the fault path.
func TestFaultRunDeterministic(t *testing.T) {
	for _, spec := range []string{"hilbert/bestfit", "mc1x1", "genalg"} {
		t.Run(spec, func(t *testing.T) {
			tr := faultTrace(150, 32)
			base, err := Run(faultyCfg(spec), tr)
			if err != nil {
				t.Fatal(err)
			}
			if base.Killed == 0 {
				t.Fatalf("workload too calm: no kills (makespan %v, down %v%%)", base.Makespan, base.DownPct)
			}
			res, err := Run(faultyCfg(spec), tr)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := goldenDigest(res), goldenDigest(base); got != want {
				t.Fatalf("rerun digest %s, want %s", got, want)
			}
			if res.Killed != base.Killed || res.Retried != base.Retried || res.GivenUp != base.GivenUp {
				t.Fatal("rerun fault counters diverge")
			}
		})
	}
}

// TestFaultRunAcrossEngineVariants: a fault-injected run — kills,
// retries, mask/unmask churn and all — reproduces its pinned digest
// under every engine variant (default, audit after every event,
// watermark off, and both). Fault events stress exactly the paths the fault-free
// goldens cannot (the fault-first tie rule against the queue head,
// watermark invalidation on mask/unmask, dead-handle recycling through
// the queue).
func TestFaultRunAcrossEngineVariants(t *testing.T) {
	for _, tc := range []struct{ spec, digest string }{
		{"hilbert/bestfit", "beb8477ccfa15d5b"},
		{"mc1x1", "20dbcb91c730614e"},
	} {
		for _, v := range engineVariants {
			t.Run(tc.spec+"/"+v.name, func(t *testing.T) {
				res, err := runWith(faultyCfg(tc.spec), faultTrace(150, 32), v.hook)
				if err != nil {
					t.Fatal(err)
				}
				if res.Killed == 0 {
					t.Fatalf("workload too calm: no kills")
				}
				if got := goldenDigest(res); got != tc.digest {
					t.Fatalf("digest %s, want %s", got, tc.digest)
				}
			})
		}
	}
}

// TestFaultsDisabledMatchesGolden: an explicitly zero fault config
// must reproduce every pinned golden digest — the fault-free path is
// bit-identical to the pre-fault engine.
func TestFaultsDisabledMatchesGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Faults = fault.Config{}
			cfg.Retry = fault.Retry{}
			tr := trace.NewSDSC(trace.SDSCConfig{Jobs: tc.jobs, MaxSize: tc.max, Seed: 1}).
				FilterMaxSize(tc.max)
			res, err := Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenDigest(res); got != tc.digest {
				t.Fatalf("digest %s, want %s", got, tc.digest)
			}
		})
	}
}

// TestFaultDeltaMirror: delta observers see mask/unmask transitions as
// allocate/release deltas, so an external mirror of the free count
// stays in lockstep with the allocator through a faulty run. Every
// allocator change — Allocate, Release, MarkDown, MarkUp — is followed
// at once by its delta, so the mirror must equal NumFree at every delta.
func TestFaultDeltaMirror(t *testing.T) {
	cfg := faultyCfg("hilbert/bestfit")
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	free := e.MachineSize()
	e.ObserveDeltas(func(now float64, ids []int, allocated bool) {
		if allocated {
			free -= len(ids)
		} else {
			free += len(ids)
		}
		if free != e.NumFree() {
			t.Fatalf("t=%v: delta mirror says %d free, allocator says %d (allocated=%v)",
				now, free, e.NumFree(), allocated)
		}
	})
	for _, j := range faultTrace(150, 32).Jobs {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if free != e.NumFree() {
		t.Fatalf("final mirror %d != NumFree %d", free, e.NumFree())
	}
	if e.Result().Killed == 0 {
		t.Fatal("workload too calm: no kills")
	}
}
