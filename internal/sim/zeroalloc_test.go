package sim

// White-box allocation guards for the scheduler round itself, so the
// incremental structures of the event-core overhaul (end-time-ordered
// running index, head-blocked watermark) cannot silently reintroduce
// per-event allocation. The repo-root zeroalloc_test.go pins the whole
// engine per job; these pin the trySchedule round in isolation.

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"meshalloc/internal/fault"
	"meshalloc/internal/trace"
)

// TestTryScheduleHeadBlockedZeroAlloc pins a head-blocked scheduling
// round at exactly zero allocations for every policy: FCFS and SJF
// short-circuit on the watermark, and EASY — which must re-scan because
// its backfill decisions depend on the clock — runs its full Pick round
// over the engine's queue and the persistent runOrd without copying
// either.
func TestTryScheduleHeadBlockedZeroAlloc(t *testing.T) {
	for _, policy := range []string{"fcfs", "sjf", "easy"} {
		t.Run(policy, func(t *testing.T) {
			cfg := Config{
				MeshW: 8, MeshH: 8,
				Alloc: "hilbert/bestfit", Pattern: "nbody", Seed: 1,
				Scheduler:   policy,
				KeepRecords: Discard, KeepNodes: Discard,
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Fill the machine, then queue jobs that cannot start.
			jobs := []trace.Job{
				{ID: 1, Size: 64, Arrival: 0, Runtime: 1000},
				{ID: 2, Size: 64, Arrival: 1, Runtime: 1000},
				{ID: 3, Size: 32, Arrival: 1, Runtime: 10},
				{ID: 4, Size: 48, Arrival: 1, Runtime: 500},
			}
			for _, j := range jobs {
				if err := e.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			e.RunUntil(2)
			if e.RunningJobs() != 1 || e.Pending() != 3 {
				t.Fatalf("setup: %d running, %d pending; want 1 running, 3 pending",
					e.RunningJobs(), e.Pending())
			}
			e.trySchedule(e.now) // warm any lazily-grown scratch
			n := testing.AllocsPerRun(200, func() {
				e.trySchedule(e.now)
			})
			if n != 0 {
				t.Fatalf("%s head-blocked round allocates %.1f objects, want 0", policy, n)
			}
			if e.RunningJobs() != 1 || e.Pending() != 3 {
				t.Fatalf("blocked rounds changed state: %d running, %d pending",
					e.RunningJobs(), e.Pending())
			}
		})
	}
}

// TestTryScheduleDispatchSteadyStateAllocs pins the full dispatching
// cycle — arrival event, scheduling round, allocation, message phases,
// finish with counted dispersal metrics — at a small constant per job
// on the Discard path: the allocator's returned id slice plus the
// pattern generator, nothing per-event and nothing per-round.
func TestTryScheduleDispatchSteadyStateAllocs(t *testing.T) {
	for _, policy := range []string{"fcfs", "easy"} {
		t.Run(policy, func(t *testing.T) {
			cfg := Config{
				MeshW: 8, MeshH: 8,
				Alloc: "hilbert/bestfit", Pattern: "nbody", Seed: 1,
				Scheduler:   policy,
				KeepRecords: Discard, KeepNodes: Discard,
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			id := 0
			cycle := func() {
				id++
				if err := e.Submit(trace.Job{ID: id, Size: 16, Arrival: e.Now(), Runtime: 5}); err != nil {
					t.Fatal(err)
				}
				e.Drain()
			}
			for i := 0; i < 50; i++ {
				cycle() // warm pools, scratch and event-queue buckets
			}
			n := testing.AllocsPerRun(200, cycle)
			if n > 4 {
				t.Fatalf("%s dispatch cycle allocates %.1f objects/job, want <= 4", policy, n)
			}
			if e.Finished() != id {
				t.Fatalf("finished %d of %d jobs", e.Finished(), id)
			}
		})
	}
}

// TestCheckpointAllocsIndependentOfQueueDepth pins the checkpoint path
// of a faulty EASY run with killed jobs: Snapshot into a buffer that
// already has room allocates nothing, encoding every part in place from
// its owner's arrays, and Audit makes a fixed number of allocations.
// Queueing 20,000 more far-future arrivals, over 1 MB more payload,
// leaves both unchanged — neither call may allocate per queued event.
func TestCheckpointAllocsIndependentOfQueueDepth(t *testing.T) {
	cfg := Config{
		MeshW: 16, MeshH: 16,
		Alloc: "hilbert/bestfit", Pattern: "nbody", Scheduler: "easy",
		TimeScale: 0.02, MsgsPerSecond: 0.5, Seed: 1,
		KeepRecords: Discard, KeepNodes: Discard,
		Faults: fault.Config{
			Seed: 1,
			MTBF: fault.Dist{Kind: fault.DistExponential, Mean: 3e5},
			MTTR: fault.Dist{Kind: fault.DistExponential, Mean: 1.5e4},
		},
		Retry: fault.Retry{Kind: fault.RetryBackoff, Base: 60, Cap: 3600, MaxAttempts: 4},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range trace.NewSDSC(trace.SDSCConfig{Jobs: 2000, MaxSize: 128, Seed: 1}).Jobs {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	// At event 4,700 two killed jobs wait to retry, so the snapshot
	// writes kill counts.
	for i := 0; i < 4700; i++ {
		e.Step()
	}
	if e.RunningJobs() < 2 || e.faults == nil || len(e.killCount) < 2 {
		t.Fatalf("setup: %d running jobs, %d jobs killed", e.RunningJobs(), len(e.killCount))
	}

	// Each measurement's warm-up call grows buf and sets the engine's
	// payload-size hint, so the counted calls are steady state.
	var buf bytes.Buffer
	snapshot := func() {
		buf.Reset()
		if err := e.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
	}
	audit := func() {
		if err := e.Audit(); err != nil {
			t.Fatal(err)
		}
	}
	measure := func() (snapAllocs, snapBytes, auditAllocs float64) {
		return testing.AllocsPerRun(20, snapshot), bytesPerRun(20, snapshot), testing.AllocsPerRun(20, audit)
	}
	snap0, bytes0, audit0 := measure()
	events0, len0 := e.events.len(), buf.Len()
	for i := 0; i < 20000; i++ {
		j := trace.Job{ID: 1_000_000 + i, Size: 1 + i%128, Arrival: 1e12 + float64(i), Runtime: 100}
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	snap1, bytes1, audit1 := measure()
	t.Logf("%d events (%d B): Snapshot %.0f allocs of %.0f B, Audit %.0f; %d events (%d B): Snapshot %.0f of %.0f B, Audit %.0f",
		events0, len0, snap0, bytes0, audit0, e.events.len(), buf.Len(), snap1, bytes1, audit1)
	if snap0 != 0 || snap1 != 0 || bytes0 != 0 || bytes1 != 0 {
		t.Fatalf("Snapshot into a buffer with room made %.0f allocs of %.0f B and %.0f of %.0f B per call (%d B and %d B payloads), want none",
			snap0, bytes0, snap1, bytes1, len0, buf.Len())
	}
	if audit1 != audit0 {
		t.Fatalf("20,000 more queued events changed Audit's allocations: %.0f -> %.0f", audit0, audit1)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one
// call of f allocates, after one warm-up call, with one P running as
// AllocsPerRun has. It returns the least mean of three windows of runs
// calls each. An allocation f makes on every call shows in every
// window; a one-off allocation of the runtime's does not, such as the
// 48 B cache it builds now and then on an interface-to-interface type
// assertion, or the background scavenger's.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := math.Inf(1)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&m1)
		least = min(least, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(runs))
	}
	return least
}
