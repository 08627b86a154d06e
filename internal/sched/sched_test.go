package sched

import (
	"testing"

	"meshalloc/internal/trace"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"fcfs", "easy", "sjf"} {
		p, err := ByName(name)
		if err != nil || p.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ByName("gang"); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

func TestSJFPicksShortestFitting(t *testing.T) {
	p := SJF{}
	pending := []trace.Job{
		{Size: 8, Runtime: 100},
		{Size: 20, Runtime: 1}, // shortest but does not fit
		{Size: 4, Runtime: 10},
		{Size: 2, Runtime: 50},
	}
	if got := p.Pick(pending, 0, 10, nil); got != 2 {
		t.Fatalf("Pick = %d, want 2 (shortest fitting)", got)
	}
	if got := p.Pick(pending, 0, 1, nil); got != -1 {
		t.Fatalf("Pick with nothing fitting = %d", got)
	}
}

func TestFCFSHeadFits(t *testing.T) {
	p := FCFS{}
	pending := []trace.Job{{Size: 8}, {Size: 2}}
	if got := p.Pick(pending, 0, 10, nil); got != 0 {
		t.Fatalf("Pick = %d, want 0", got)
	}
}

func TestFCFSHeadBlocks(t *testing.T) {
	p := FCFS{}
	// Head needs 8, only 4 free: strict FCFS starts nothing even though
	// the second job fits.
	pending := []trace.Job{{Size: 8}, {Size: 2}}
	if got := p.Pick(pending, 0, 4, nil); got != -1 {
		t.Fatalf("Pick = %d, want -1", got)
	}
}

func TestFCFSEmptyQueue(t *testing.T) {
	if got := (FCFS{}).Pick(nil, 0, 10, nil); got != -1 {
		t.Fatalf("Pick on empty queue = %d", got)
	}
}

func TestEASYHeadFirst(t *testing.T) {
	p := EASY{}
	pending := []trace.Job{{Size: 4}, {Size: 2}}
	if got := p.Pick(pending, 0, 4, nil); got != 0 {
		t.Fatalf("Pick = %d, want 0 (head fits)", got)
	}
}

func TestEASYBackfillsShortJob(t *testing.T) {
	p := EASY{}
	// Head needs 8; 4 free; a running 4-proc job ends at t=100, so the
	// head's reservation is t=100. A 2-proc job estimated to finish by
	// then may backfill.
	pending := []trace.Job{
		{Size: 8, Runtime: 50},
		{Size: 2, Runtime: 40},
	}
	running := []Running{{Size: 4, EstEnd: 100}}
	if got := p.Pick(pending, 10, 4, running); got != 1 {
		t.Fatalf("Pick = %d, want 1 (backfill)", got)
	}
}

func TestEASYRefusesDelayingBackfill(t *testing.T) {
	p := EASY{}
	// Same as above but the candidate would finish after the
	// reservation and would eat reserved processors.
	pending := []trace.Job{
		{Size: 8, Runtime: 50},
		{Size: 4, Runtime: 200},
	}
	running := []Running{{Size: 4, EstEnd: 100}}
	if got := p.Pick(pending, 10, 4, running); got != -1 {
		t.Fatalf("Pick = %d, want -1", got)
	}
}

func TestEASYAllowsExtraProcessorBackfill(t *testing.T) {
	p := EASY{}
	// Reservation at t=100 frees 12 procs for an 8-proc head: 4 extra.
	// A long 3-proc job cannot delay the head because it fits in the
	// extra processors.
	pending := []trace.Job{
		{Size: 8, Runtime: 50},
		{Size: 3, Runtime: 1e9},
	}
	running := []Running{{Size: 12, EstEnd: 100}}
	if got := p.Pick(pending, 10, 3, running); got != 1 {
		t.Fatalf("Pick = %d, want 1", got)
	}
}

func TestEASYUnsatisfiableReservation(t *testing.T) {
	p := EASY{}
	// Nothing running and the head can never fit: no backfilling
	// decisions can be justified.
	pending := []trace.Job{{Size: 100}, {Size: 2, Runtime: 1}}
	if got := p.Pick(pending, 0, 4, nil); got != -1 {
		t.Fatalf("Pick = %d, want -1", got)
	}
}

// TestSJFTieBreaking pins the tie rule: among fitting jobs with equal
// runtime estimates, the earliest-arrived (lowest index) wins, so SJF
// stays deterministic and starvation-ordered within a runtime class.
func TestSJFTieBreaking(t *testing.T) {
	p := SJF{}
	cases := []struct {
		name    string
		pending []trace.Job
		free    int
		want    int
	}{
		{
			name: "equal estimates pick earliest",
			pending: []trace.Job{
				{Size: 4, Runtime: 10},
				{Size: 4, Runtime: 10},
				{Size: 4, Runtime: 10},
			},
			free: 8, want: 0,
		},
		{
			name: "tie among later jobs when the first does not fit",
			pending: []trace.Job{
				{Size: 9, Runtime: 10},
				{Size: 4, Runtime: 10},
				{Size: 4, Runtime: 10},
			},
			free: 8, want: 1,
		},
		{
			name: "strictly shorter job beats an earlier equal-size one",
			pending: []trace.Job{
				{Size: 4, Runtime: 10},
				{Size: 4, Runtime: 9.999},
			},
			free: 8, want: 1,
		},
		{
			name: "zero-estimate jobs tie like any other value",
			pending: []trace.Job{
				{Size: 4, Runtime: 0},
				{Size: 4, Runtime: 0},
			},
			free: 8, want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := p.Pick(tc.pending, 0, tc.free, nil); got != tc.want {
				t.Fatalf("Pick = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestEASYShadowTimeEdges pins the boundary cases of the backfilling
// rule — a candidate finishing exactly at the reservation, zero
// runtime estimates, and a candidate exactly the size of the extra
// processors freed at the shadow time.
func TestEASYShadowTimeEdges(t *testing.T) {
	p := EASY{}
	cases := []struct {
		name    string
		pending []trace.Job
		running []Running
		now     float64
		free    int
		want    int
	}{
		{
			// Reservation at t=100; now=10. A candidate with
			// Runtime=90 ends exactly at the shadow: <= admits it.
			name: "exact-fit backfill at the shadow boundary",
			pending: []trace.Job{
				{Size: 8, Runtime: 50},
				{Size: 4, Runtime: 90},
			},
			running: []Running{{Size: 4, EstEnd: 100}},
			now:     10, free: 4, want: 1,
		},
		{
			// One tick past the shadow (and bigger than extra): refused.
			name: "just past the shadow is refused",
			pending: []trace.Job{
				{Size: 8, Runtime: 50},
				{Size: 4, Runtime: 90.001},
			},
			running: []Running{{Size: 4, EstEnd: 100}},
			now:     10, free: 4, want: -1,
		},
		{
			// A zero-estimate job finishes "immediately": always
			// before the reservation, so it backfills whenever it fits.
			name: "zero-estimate job backfills",
			pending: []trace.Job{
				{Size: 8, Runtime: 50},
				{Size: 4, Runtime: 0},
			},
			running: []Running{{Size: 4, EstEnd: 100}},
			now:     10, free: 4, want: 1,
		},
		{
			// 5 free now + 6 released at t=100 leaves 11 for the 8-proc
			// head: extra = 3. An arbitrarily long candidate of exactly
			// 3 procs slots into the extra capacity.
			name: "candidate exactly equal to the extra processors",
			pending: []trace.Job{
				{Size: 8, Runtime: 50},
				{Size: 3, Runtime: 1e12},
			},
			running: []Running{{Size: 6, EstEnd: 100}},
			now:     10, free: 5, want: 1,
		},
		{
			// Same shadow but one processor over the extra: a size-4
			// candidate fits the 5 free now, yet would eat into the
			// head's reservation, so it is refused.
			name: "candidate one over the extra is refused",
			pending: []trace.Job{
				{Size: 8, Runtime: 50},
				{Size: 4, Runtime: 1e12},
			},
			running: []Running{{Size: 6, EstEnd: 100}},
			now:     10, free: 5, want: -1,
		},
		{
			// A backfill candidate the same size as the head cannot
			// start now (head does not fit by definition of the branch)
			// unless it finishes by the shadow.
			name: "candidate equal to the head size within shadow",
			pending: []trace.Job{
				{Size: 8, Runtime: 50},
				{Size: 8, Runtime: 90},
			},
			running: []Running{{Size: 8, EstEnd: 100}},
			now:     10, free: 0, want: -1, // does not fit in 0 free
		},
		{
			// Head itself fits: backfilling logic never engages.
			name: "head starts before any backfill consideration",
			pending: []trace.Job{
				{Size: 4, Runtime: 50},
				{Size: 2, Runtime: 1},
			},
			running: []Running{{Size: 4, EstEnd: 100}},
			now:     10, free: 4, want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := p.Pick(tc.pending, tc.now, tc.free, tc.running); got != tc.want {
				t.Fatalf("Pick = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestEASYScansPastUnfitCandidates pins that backfilling keeps
// scanning: an unfit or shadow-violating candidate does not stop a
// later legitimate one.
func TestEASYScansPastUnfitCandidates(t *testing.T) {
	p := EASY{}
	pending := []trace.Job{
		{Size: 8, Runtime: 50},  // blocked head
		{Size: 6, Runtime: 1e9}, // too big for free procs
		{Size: 4, Runtime: 1e9}, // fits but would delay the head
		{Size: 2, Runtime: 10},  // legitimate backfill
	}
	running := []Running{{Size: 4, EstEnd: 100}}
	if got := p.Pick(pending, 10, 4, running); got != 3 {
		t.Fatalf("Pick = %d, want 3", got)
	}
}

func TestShadowTimeOrdering(t *testing.T) {
	// Releases accumulate in end order: 2 at t=10, 3 at t=20, 5 at t=30.
	// The caller keeps running in that order.
	running := []Running{
		{Size: 2, EstEnd: 10},
		{Size: 3, EstEnd: 20},
		{Size: 5, EstEnd: 30},
	}
	shadow, extra := shadowTime(5, 0, running)
	if shadow != 20 || extra != 0 {
		t.Fatalf("shadow = %g, extra = %d; want 20, 0", shadow, extra)
	}
	shadow, extra = shadowTime(6, 1, running)
	if shadow != 20 || extra != 0 {
		t.Fatalf("shadow = %g, extra = %d; want 20, 0", shadow, extra)
	}
	shadow, extra = shadowTime(10, 0, running)
	if shadow != 30 || extra != 0 {
		t.Fatalf("shadow = %g, extra = %d; want 30, 0", shadow, extra)
	}
	// More processors than will ever free up: unsatisfiable.
	if _, extra = shadowTime(11, 0, running); extra != -1 {
		t.Fatalf("unsatisfiable reservation extra = %d, want -1", extra)
	}
}
