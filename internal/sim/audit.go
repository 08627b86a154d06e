package sim

import (
	"errors"
	"fmt"
	"sort"

	"meshalloc/internal/alloc"
	"meshalloc/internal/sched"
)

// Violation is one failed engine invariant: Invariant names the rule,
// Detail carries the numbers. Audit joins every violation it finds with
// errors.Join, so callers can match individual rules with errors.As and
// a target *Violation.
type Violation struct {
	Invariant string
	Detail    string
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("sim: invariant %q violated: %s", v.Invariant, v.Detail)
}

func violatef(invariant, format string, args ...any) error {
	return &Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
}

// Audit cross-checks every redundant structure the engine maintains —
// the allocator's occupancy indexes against its free count, the job
// store against the owner map and the running-set mirror, the event
// queue's time and sequence discipline, the fault masks against the
// availability flags, and job conservation across queue, machine and
// retry bookkeeping. It returns nil when every invariant holds, or all
// violations found joined into one error.
//
// The walk is read-only and costs O(machine + events + jobs) time and a
// fixed number of allocations of O(events + handles) bytes; it is cheap
// enough to run between events (see Config.AuditEvery) and is run
// automatically after a snapshot restore.
func (e *Engine) Audit() error {
	var errs []error
	s := &e.store

	// Job-store bookkeeping: the live count, the pool free list and the
	// inUse/dead flags must describe one consistent partition of the
	// handle space.
	live, busy := 0, 0
	for h := range s.rows {
		if r := &s.rows[h]; r.inUse && !r.dead {
			live++
			busy += r.job.Size
		}
	}
	if live != s.live {
		errs = append(errs, violatef("store-live", "counted %d live handles, cached %d", live, s.live))
	}
	// mark holds per-handle audit bits: markFree for a handle seen on
	// the free list, markRun for one seen in the running-set mirror.
	const markFree, markRun = 1, 2
	mark := make([]uint8, len(s.rows))
	for _, h := range s.free {
		if h < 0 || int(h) >= len(s.rows) {
			errs = append(errs, violatef("store-free", "free-list handle %d outside [0,%d)", h, len(s.rows)))
			continue
		}
		if mark[h]&markFree != 0 {
			errs = append(errs, violatef("store-free", "handle %d on the free list twice", h))
		}
		mark[h] |= markFree
		if s.rows[h].inUse {
			errs = append(errs, violatef("store-free", "handle %d both in use and on the free list", h))
		}
	}
	for h := range s.rows {
		if !s.rows[h].inUse && mark[h]&markFree == 0 {
			errs = append(errs, violatef("store-free", "handle %d neither in use nor on the free list", h))
		}
	}

	// Occupancy: the busy-processor total is the sum of live job sizes,
	// and machine size decomposes into job-held, fault-masked and free.
	if busy != e.busyProcs {
		errs = append(errs, violatef("busy-procs", "live jobs hold %d processors, cached busyProcs %d", busy, e.busyProcs))
	}
	slack := e.grid.Size() - e.busyProcs - e.maskedN - e.allocator.NumFree()
	if slack < 0 {
		errs = append(errs, violatef("free-count",
			"machine %d < busy %d + masked %d + free %d", e.grid.Size(), e.busyProcs, e.maskedN, e.allocator.NumFree()))
	} else if slack > 0 && exactSize(e.allocator) {
		errs = append(errs, violatef("free-count",
			"%d processors unaccounted for (machine %d, busy %d, masked %d, free %d)",
			slack, e.grid.Size(), e.busyProcs, e.maskedN, e.allocator.NumFree()))
	}
	if err := e.allocator.AuditIndexes(); err != nil {
		errs = append(errs, &Violation{Invariant: "alloc-indexes", Detail: err.Error()})
	}

	// Event queue: the heap is a heap and the FIFO holds only arrivals
	// in strictly ascending (t, seq) order — what lets head and pop read
	// two parts as one queue, and a live step at the head be the heap's
	// root; every queued event is in the clock's future, carries a
	// sequence number below the engine's counter, no two events share
	// one, and job events reference in-use handles. Arrival slab: every
	// arrival event parks its job in its own in-range slot, off the free
	// list, and every slot is either parked or free.
	hp, fifo := e.events.heap, e.events.fifo[e.events.fh:]
	seqs := newSeqSet(len(hp) + len(fifo))
	const slotFree, slotUsed = 1, 2
	slot := make([]uint8, len(e.slots))
	for _, h := range e.slotFree {
		switch {
		case h < 0 || int(h) >= len(e.slots):
			errs = append(errs, violatef("arrival-slots", "free-list slot %d outside [0,%d)", h, len(e.slots)))
		case slot[h] != 0:
			errs = append(errs, violatef("arrival-slots", "slot %d on the free list twice", h))
		default:
			slot[h] = slotFree
		}
	}
	arrivals := 0
	for i := 0; i < len(hp)+len(fifo); i++ {
		var ev *event
		if i < len(hp) {
			ev = &hp[i]
			if i > 0 && before(ev, &hp[(i-1)/2]) {
				p := &hp[(i-1)/2]
				errs = append(errs, violatef("event-order", "heap event seq %d at t=%v is before its parent seq %d at t=%v",
					ev.seq, ev.t, p.seq, p.t))
			}
		} else {
			k := i - len(hp)
			ev = &fifo[k]
			if ev.kind != kindArrival {
				errs = append(errs, violatef("event-order", "FIFO holds kind-%d event seq %d", ev.kind, ev.seq))
			}
			if k > 0 && !before(&fifo[k-1], ev) {
				errs = append(errs, violatef("event-order", "FIFO event seq %d at t=%v is not after seq %d at t=%v",
					ev.seq, ev.t, fifo[k-1].seq, fifo[k-1].t))
			}
		}
		if ev.t < e.now {
			errs = append(errs, violatef("event-time", "event seq %d at t=%v behind clock %v", ev.seq, ev.t, e.now))
		}
		if ev.seq < 0 || ev.seq >= e.seq {
			errs = append(errs, violatef("event-seq", "event seq %d outside [0,%d)", ev.seq, e.seq))
		}
		if seqs.add(ev.seq) {
			errs = append(errs, violatef("event-seq", "two events share seq %d", ev.seq))
		}
		if ev.kind == kindStep || ev.kind == kindFinish {
			if ev.h < 0 || int(ev.h) >= len(s.rows) || !s.rows[ev.h].inUse {
				errs = append(errs, violatef("event-handle", "event seq %d references unused handle %d", ev.seq, ev.h))
			}
			continue
		}
		arrivals++
		switch {
		case ev.h < 0 || int(ev.h) >= len(e.slots):
			errs = append(errs, violatef("arrival-slots", "arrival seq %d references slot %d outside [0,%d)", ev.seq, ev.h, len(e.slots)))
		case slot[ev.h] == slotUsed:
			errs = append(errs, violatef("arrival-slots", "arrival seq %d shares slot %d with another arrival", ev.seq, ev.h))
		case slot[ev.h] == slotFree:
			errs = append(errs, violatef("arrival-slots", "arrival seq %d references free slot %d", ev.seq, ev.h))
		default:
			slot[ev.h] = slotUsed
		}
	}
	if len(e.slots) != arrivals+len(e.slotFree) {
		errs = append(errs, violatef("arrival-slots", "%d slots != %d arrival events + %d free",
			len(e.slots), arrivals, len(e.slotFree)))
	}

	// Running-set mirror: under EASY, runOrd holds exactly the live set
	// in ascending (EstEnd, handle) order — what rebuilding it from the
	// store would produce.
	if e.isEASY {
		if len(e.runOrd) != live || len(e.runOrdH) != len(e.runOrd) {
			errs = append(errs, violatef("run-mirror", "runOrd holds %d entries for %d live jobs", len(e.runOrd), live))
		} else {
			seen := 0 // distinct live handles in runOrdH
			for i, h := range e.runOrdH {
				if h < 0 || int(h) >= len(s.rows) || !s.rows[h].inUse || s.rows[h].dead {
					errs = append(errs, violatef("run-mirror", "runOrd[%d] references non-live handle %d", i, h))
					continue
				}
				if mark[h]&markRun == 0 {
					mark[h] |= markRun
					seen++
				}
				if r := &s.rows[h]; e.runOrd[i].EstEnd != r.estEnd() || e.runOrd[i].Size != r.job.Size {
					errs = append(errs, violatef("run-mirror", "runOrd[%d]=%+v disagrees with handle %d", i, e.runOrd[i], h))
				}
				if i > 0 && (e.runOrd[i-1].EstEnd > e.runOrd[i].EstEnd ||
					(e.runOrd[i-1].EstEnd == e.runOrd[i].EstEnd && e.runOrdH[i-1] > h)) {
					errs = append(errs, violatef("run-order", "runOrd[%d..%d] out of (EstEnd, handle) order", i-1, i))
				}
			}
			if seen != len(e.runOrdH) {
				errs = append(errs, violatef("run-mirror", "runOrd repeats a handle"))
			}
		}
	}

	// Fault state: flags, masks and ownership must agree — a node is
	// masked exactly when it is flagged unavailable and unoccupied, and
	// the owner map mirrors the live jobs' node sets both ways.
	if e.faults != nil {
		flagged, maskedN := 0, 0
		for n := range e.down {
			if e.down[n] || e.drained[n] {
				flagged++
			}
			if e.masked[n] {
				maskedN++
			}
			want := (e.down[n] || e.drained[n]) && e.owner[n] < 0
			if e.masked[n] != want {
				errs = append(errs, violatef("fault-mask",
					"node %d: masked=%v with down=%v drained=%v owner=%d", n, e.masked[n], e.down[n], e.drained[n], e.owner[n]))
			}
		}
		if flagged != e.flagged {
			errs = append(errs, violatef("fault-flagged", "counted %d flagged nodes, cached %d", flagged, e.flagged))
		}
		if maskedN != e.maskedN {
			errs = append(errs, violatef("fault-masked", "counted %d masked nodes, cached %d", maskedN, e.maskedN))
		}
		owned := 0
		for h := range s.rows {
			r := &s.rows[h]
			if !r.inUse || r.dead {
				continue
			}
			for _, id := range r.nodes {
				owned++
				if id < 0 || id >= len(e.owner) || e.owner[id] != int32(h) {
					errs = append(errs, violatef("owner-map", "node %d of handle %d has owner %d", id, h, e.owner[id]))
				}
			}
		}
		for n, h := range e.owner {
			if h >= 0 {
				owned--
				if int(h) >= len(s.rows) || !s.rows[h].inUse || s.rows[h].dead {
					errs = append(errs, violatef("owner-map", "node %d owned by non-live handle %d", n, h))
				}
			}
		}
		if owned != 0 {
			errs = append(errs, violatef("owner-map", "owner map and job node sets disagree by %d nodes", owned))
		}
	}

	// Job conservation: every submitted job is, at any instant, exactly
	// one of: an arrival event still queued (its first, or a retry's),
	// a pending queue entry, a running job, a finished job, or a job
	// given up after a kill. A job RunSource holds past the horizon is
	// not yet submitted.
	if out := arrivals + e.Pending() + live + e.finished + e.givenUp; e.submitted != out {
		errs = append(errs, violatef("job-conservation",
			"%d submitted != %d arrival events + %d queued + %d running + %d finished + %d given up",
			e.submitted, arrivals, e.Pending(), live, e.finished, e.givenUp))
	}

	return errors.Join(errs...)
}

// seqSet is the audit's set of queued event seqs: open addressing with
// linear probing over a table at most half full, so a duplicate check
// costs one allocation of O(events) however large the seqs are. Zero
// marks an empty slot, so seq 0 is tracked by its own flag.
type seqSet struct {
	tab   []int64
	shift uint // 64 - log2(len(tab))
	zero  bool
}

// newSeqSet returns an empty set with room for n seqs at load <= 1/2.
func newSeqSet(n int) seqSet {
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	return seqSet{tab: make([]int64, 1<<bits), shift: 64 - bits}
}

// add inserts seq and reports whether it was already present.
func (s *seqSet) add(seq int64) bool {
	if seq == 0 {
		dup := s.zero
		s.zero = true
		return dup
	}
	// Fibonacci hashing spreads consecutive seqs across the table.
	mask := len(s.tab) - 1
	for i := int(uint64(seq) * 0x9E3779B97F4A7C15 >> s.shift); ; i = (i + 1) & mask {
		switch s.tab[i] {
		case 0:
			s.tab[i] = seq
			return false
		case seq:
			return true
		}
	}
}

// exactSize reports whether the free-count audit holds a to an exact
// balance: Paging, the MC family, Gen-Alg, Random and submesh first fit
// consume exactly the requested processor count and leave no internal
// fragmentation. Buddy rounds requests up to whole blocks and paged
// forms strand the tail of a partially-used page, so for the other
// allocators only a negative free-count slack is a violation.
func exactSize(a alloc.Allocator) bool {
	switch a.(type) {
	case *alloc.Paging, *alloc.MC, *alloc.GenAlg, *alloc.Random, *alloc.SubmeshFirstFit:
		return true
	}
	return false
}

// rebuildDerived reconstructs every derived index from the engine's
// authoritative state: the allocator's occupancy structures from the
// live jobs' node sets, the fault masks from the availability flags and
// ownership, and the running-set mirror from the store. It runs once,
// on the engine RestoreEngine has just built, so every derived
// structure starts empty, and it returns an error (never panics) on
// state no allocator can hold.
func (e *Engine) rebuildDerived() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: derived-state rebuild failed: %v", r)
		}
	}()
	s := &e.store

	// Validate the node sets as a whole before touching the allocator:
	// ids in range and no processor claimed twice.
	size := e.grid.Size()
	claimed := make([]bool, size)
	var live []int32 // the live handles, ascending
	busy := 0
	for h := range s.rows {
		r := &s.rows[h]
		if !r.inUse || r.dead {
			continue
		}
		live = append(live, int32(h))
		for _, id := range r.nodes {
			if id < 0 || id >= size {
				return fmt.Errorf("sim: handle %d claims node %d outside [0,%d)", h, id, size)
			}
			if claimed[id] {
				return fmt.Errorf("sim: node %d claimed by two jobs", id)
			}
			claimed[id] = true
		}
		busy += r.job.Size
	}
	e.busyProcs = busy

	// Re-occupy in ascending handle order (deterministic, and for Buddy
	// any order reconstructs the same quadtree: eager coalescing makes
	// the free set a pure function of the allocated set).
	for _, h := range live {
		e.allocator.Occupy(s.rows[h].nodes)
	}

	// Fault-derived state: the owner map from the node sets, then the
	// mask for every flagged-and-unoccupied node. Flags themselves are
	// authoritative (restored from the snapshot).
	if e.faults != nil {
		for _, h := range live {
			for _, id := range s.rows[h].nodes {
				e.owner[id] = h
			}
		}
		for n := range e.down {
			if e.down[n] || e.drained[n] {
				e.flagged++
				if e.owner[n] < 0 {
					e.faultable.MarkDown(n)
					e.masked[n] = true
					e.maskedN++
				}
			}
		}
	}

	// Running-set mirror, under EASY.
	if e.isEASY {
		sort.SliceStable(live, func(i, j int) bool {
			return s.rows[live[i]].estEnd() < s.rows[live[j]].estEnd()
		})
		for _, h := range live {
			e.runOrd = append(e.runOrd, sched.Running{Size: s.rows[h].job.Size, EstEnd: s.rows[h].estEnd()})
			e.runOrdH = append(e.runOrdH, h)
		}
	}
	return nil
}
