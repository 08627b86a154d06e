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

// aliasArrivalSlot points the second queued arrival event at the first
// one's slab slot, leaving the second slot parked but unreferenced. It
// reports false when fewer than two arrivals are queued.
func (e *Engine) aliasArrivalSlot() bool {
	first := -1
	for i, ev := range e.events {
		if ev.kind != kindArrival {
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		e.events[i].h = e.events[first].h
		return true
	}
	return false
}
