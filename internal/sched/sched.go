// Package sched implements the job-start policies of the simulator. The
// paper fixes scheduling to First Come, First Serve; EASY backfilling is
// included as the extension the Discussion section calls for when
// studying allocator/scheduler interaction.
package sched

import (
	"fmt"

	"meshalloc/internal/trace"
)

// Running describes one running job, for backfilling's shadow-time
// computation.
type Running struct {
	Size int
	// EstEnd is the estimated completion time.
	EstEnd float64
}

// Policy picks the next queued job to start.
type Policy interface {
	// Name identifies the policy, e.g. "fcfs".
	Name() string
	// Pick returns the index in queue (arrival order) of the next job
	// to start given free processors, or -1 when none may start. Each
	// job's Runtime is its runtime estimate (the traced runtime:
	// "perfect" estimates). running is in ascending EstEnd order (ties
	// in any fixed deterministic order). The caller re-invokes Pick
	// after each start.
	Pick(queue []trace.Job, now float64, freeProcs int, running []Running) int
}

// ByName returns the policy registered under name ("fcfs", "easy" or
// "sjf").
func ByName(name string) (Policy, error) {
	switch name {
	case "fcfs":
		return FCFS{}, nil
	case "easy":
		return EASY{}, nil
	case "sjf":
		return SJF{}, nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %q", name)
	}
}

// FCFS is strict First Come, First Serve: the head of the queue starts
// when it fits; no job may overtake it.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// Pick implements Policy.
func (FCFS) Pick(queue []trace.Job, _ float64, freeProcs int, _ []Running) int {
	if len(queue) > 0 && queue[0].Size <= freeProcs {
		return 0
	}
	return -1
}

// EASY is aggressive (EASY) backfilling: the queue head reserves the
// earliest time enough processors will be free, and later jobs may start
// out of order only if they cannot delay that reservation.
type EASY struct{}

// Name implements Policy.
func (EASY) Name() string { return "easy" }

// Pick implements Policy.
func (EASY) Pick(queue []trace.Job, now float64, freeProcs int, running []Running) int {
	if len(queue) == 0 {
		return -1
	}
	if queue[0].Size <= freeProcs {
		return 0
	}
	shadow, extra := shadowTime(queue[0].Size, freeProcs, running)
	for i := 1; i < len(queue); i++ {
		j := &queue[i]
		if j.Size > freeProcs {
			continue
		}
		// A backfilled job must either finish before the head's
		// reservation or leave the reservation's processors untouched.
		if now+j.Runtime <= shadow || j.Size <= extra {
			return i
		}
	}
	return -1
}

// SJF starts the shortest (by runtime estimate) fitting job, ignoring
// arrival order. It minimizes mean wait at the cost of potential
// starvation; included for scheduler/allocator interaction studies, not
// in the paper.
type SJF struct{}

// Name implements Policy.
func (SJF) Name() string { return "sjf" }

// Pick implements Policy.
func (SJF) Pick(queue []trace.Job, _ float64, freeProcs int, _ []Running) int {
	best := -1
	for i := range queue {
		j := &queue[i]
		if j.Size > freeProcs {
			continue
		}
		if best == -1 || j.Runtime < queue[best].Runtime {
			best = i
		}
	}
	return best
}

// shadowTime returns the earliest estimated time at which headSize
// processors are free (the head's reservation) and the number of extra
// processors free at that time beyond the head's need. ends is the
// running set in ascending EstEnd order; releases accumulate along it.
func shadowTime(headSize, freeProcs int, ends []Running) (shadow float64, extra int) {
	free := freeProcs
	for _, r := range ends {
		free += r.Size
		if free >= headSize {
			return r.EstEnd, free - headSize
		}
	}
	// Without enough running work to ever free the processors, the
	// reservation is unsatisfiable; disallow all backfilling.
	return 0, -1
}
