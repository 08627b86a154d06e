package sim

import "meshalloc/internal/trace"

// Test hooks into engine state that no Config field exposes.

// disableWatermark turns the head-blocked watermark off, so every
// trySchedule call runs a full policy round. A run with the watermark
// off is the reference its O(1) skips are checked against.
func (e *Engine) disableWatermark() {
	e.canBlock = false
	e.blocked = false
}

// runWith replays tr exactly as Run does, after applying hook to the
// freshly built engine.
func runWith(cfg Config, tr *trace.Trace, hook func(*Engine)) (*Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	hook(e)
	return e.runTrace(tr)
}

// queued returns pointers to every queued event, the heap's first and
// then the FIFO's, so the corruption hooks below reach both parts.
func (e *Engine) queued() []*event {
	var out []*event
	for i := range e.events.heap {
		out = append(out, &e.events.heap[i])
	}
	for i := e.events.fh; i < len(e.events.fifo); i++ {
		out = append(out, &e.events.fifo[i])
	}
	return out
}

// aliasArrivalSlot points the second queued arrival event at the first
// one's slab slot, leaving the second slot parked but unreferenced. It
// reports false when fewer than two arrivals are queued.
func (e *Engine) aliasArrivalSlot() bool {
	var first *event
	for _, ev := range e.queued() {
		if ev.kind != kindArrival {
			continue
		}
		if first == nil {
			first = ev
			continue
		}
		ev.h = first.h
		return true
	}
	return false
}

// shareEventSeq gives the first two queued events seq. It reports
// false when fewer than two events are queued.
func (e *Engine) shareEventSeq(seq int64) bool {
	evs := e.queued()
	if len(evs) < 2 {
		return false
	}
	evs[0].seq, evs[1].seq = seq, seq
	return true
}

// swapFIFOPair swaps the FIFO's first two events, so it is no longer
// ascending. It reports false when the FIFO holds fewer than two.
func (e *Engine) swapFIFOPair() bool {
	q := &e.events
	if len(q.fifo)-q.fh < 2 {
		return false
	}
	q.fifo[q.fh], q.fifo[q.fh+1] = q.fifo[q.fh+1], q.fifo[q.fh]
	return true
}

// invertHeapRoot swaps the heap's root with its first child, so the
// child is before its parent. It reports false when the heap holds
// fewer than two events.
func (e *Engine) invertHeapRoot() bool {
	h := e.events.heap
	if len(h) < 2 {
		return false
	}
	h[0], h[1] = h[1], h[0]
	return true
}

// duplicateFreeHandle overwrites the first free-list entry with the
// second, so one handle is on the free list twice and the overwritten
// one is neither in use nor free. It reports false when fewer than two
// handles are free.
func (e *Engine) duplicateFreeHandle() bool {
	if len(e.store.free) < 2 {
		return false
	}
	e.store.free[0] = e.store.free[1]
	return true
}

// repeatRunHandle copies the first running-mirror entry over the
// second, so runOrdH repeats a handle while staying in (EstEnd,
// handle) order. It reports false when fewer than two jobs run.
func (e *Engine) repeatRunHandle() bool {
	if len(e.runOrdH) < 2 {
		return false
	}
	e.runOrd[1], e.runOrdH[1] = e.runOrd[0], e.runOrdH[0]
	return true
}

// backdateEvent moves the last queued event to before the clock. It
// reports false on an empty queue.
func (e *Engine) backdateEvent() bool {
	evs := e.queued()
	if len(evs) == 0 {
		return false
	}
	evs[len(evs)-1].t = e.now - 1
	return true
}

// freeEventHandle points the first queued job event at a handle on the
// free list. It reports false when no job event is queued or no handle
// is free.
func (e *Engine) freeEventHandle() bool {
	if len(e.store.free) == 0 {
		return false
	}
	for _, ev := range e.queued() {
		if ev.kind == kindStep || ev.kind == kindFinish {
			ev.h = e.store.free[0]
			return true
		}
	}
	return false
}
