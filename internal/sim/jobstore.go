package sim

import (
	"meshalloc/internal/comm"
	"meshalloc/internal/trace"
)

// jobRow is one in-flight job's state.
type jobRow struct {
	job     trace.Job
	nodes   []int
	gen     comm.Generator
	quota   int64 // quotaOf(job), cached for the step loop
	sent    int64
	hops    int64
	start   float64
	lastArr float64 // latest delivery so far
	queued  float64
	dead    bool // killed by a node failure; awaiting its stale event
	inUse   bool
}

// estEnd is the row's nominal end, the estimate backfilling reads.
func (r *jobRow) estEnd() float64 { return r.start + r.job.Runtime }

// jobStore holds every in-flight job's row, indexed by pooled int32
// handles. Events reference jobs by handle, so the event queue — the
// largest long-lived structure on a Discard run — carries no pointers at
// all and costs the garbage collector nothing to scan; the rows, which
// hold pointers (nodes, gen), are bounded by the number of concurrently
// running jobs, not by queue depth. A row's generator is rebuilt in
// place for each job it carries. Handles are recycled LIFO through free:
// a handle stays in use after a kill (dead=true) until the job's one
// stale queue event pops and releases it, so a recycled handle can
// never collide with a live queue entry.
type jobStore struct {
	rows []jobRow
	free []int32
	live int // in-use and not dead: the running-job count
}

// alloc returns an in-use handle, appending a row when the pool is dry.
func (s *jobStore) alloc() int32 {
	s.live++
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		s.rows[h].inUse = true
		return h
	}
	s.rows = append(s.rows, jobRow{inUse: true})
	return int32(len(s.rows) - 1)
}

// markDead flags a killed job whose stale queue event still holds the
// handle; the handle leaves the running count now but returns to the
// pool only when that event pops.
func (s *jobStore) markDead(h int32) {
	r := &s.rows[h]
	r.dead = true
	r.nodes = nil
	s.live--
}

// release returns h to the pool: the job finished, or the stale event
// of a killed job popped.
func (s *jobStore) release(h int32) {
	r := &s.rows[h]
	if !r.dead {
		s.live--
	}
	r.dead, r.inUse, r.nodes = false, false, nil
	s.free = append(s.free, h)
}
