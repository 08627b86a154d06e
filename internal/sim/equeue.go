package sim

// event is one entry of the event queue: 24 bytes and pointer-free.
// Running jobs are referenced by jobStore handle and queued arrivals by
// their slot in the engine's arrival slab, so a heap sift moves well
// under half a cache line per level and the queue — however deep a run
// makes it — contributes nothing to GC scan work.
type event struct {
	t    float64
	seq  int64 // FIFO tie-break for determinism
	h    int32 // jobStore handle (kindStep/kindFinish) or arrival slot
	kind int32 // kindArrival, kindStep or kindFinish
}

const (
	kindArrival = iota
	kindStep
	kindFinish
)

// before reports whether a pops before b. Keys are unique — every
// queued event has its own seq — so the order is total.
func before(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventQueue is the engine's event queue, popping events in strictly
// ascending (t, seq) order — the FIFO tie rule every golden digest
// depends on. It has two parts. fifo holds arrivals in the order they
// were queued, and admits one only if it sorts after the current tail,
// so the FIFO is always ascending: a batch run submits its whole
// sorted trace there, and each of those arrivals costs one append and
// one index bump instead of two sifts. heap holds everything else —
// step and finish events, retries, and arrivals that would land before
// the tail — in a binary min-heap that stays as small as the in-flight
// work. head and pop take the earlier of the two parts' heads, so the
// pop sequence is the one a single heap over every event would give.
type eventQueue struct {
	heap eventHeap
	fifo []event
	fh   int // index of the FIFO's first queued event
}

func (q *eventQueue) len() int { return len(q.heap) + len(q.fifo) - q.fh }

// fifoFirst reports whether the queue's earliest event is the FIFO's.
func (q *eventQueue) fifoFirst() bool {
	return q.fh < len(q.fifo) && (len(q.heap) == 0 || before(&q.fifo[q.fh], &q.heap[0]))
}

// head returns the earliest event without removing it; ok is false on
// an empty queue.
func (q *eventQueue) head() (ev event, ok bool) {
	if q.fifoFirst() {
		return q.fifo[q.fh], true
	}
	if len(q.heap) == 0 {
		return event{}, false
	}
	return q.heap[0], true
}

// pop removes and returns the earliest event of a non-empty queue. The
// FIFO resets to empty when its last event leaves.
func (q *eventQueue) pop() event {
	if q.fifoFirst() {
		ev := q.fifo[q.fh]
		if q.fh++; q.fh == len(q.fifo) {
			q.fifo, q.fh = q.fifo[:0], 0
		}
		return ev
	}
	return q.heap.pop()
}

// push queues a step or finish event.
func (q *eventQueue) push(ev event) { q.heap.push(ev) }

// pushArrival queues an arrival: on the FIFO when it sorts after the
// tail, on the heap otherwise. Before appending, a FIFO whose consumed
// prefix has passed half its length is compacted, so a FIFO that never
// empties — an open-system run with arrivals queued ahead — still holds
// O(queued) events.
func (q *eventQueue) pushArrival(ev event) {
	if n := len(q.fifo); n > q.fh && !before(&q.fifo[n-1], &ev) {
		q.heap.push(ev)
		return
	}
	if q.fh > 0 && 2*q.fh >= len(q.fifo) {
		q.fifo = q.fifo[:copy(q.fifo, q.fifo[q.fh:])]
		q.fh = 0
	}
	q.fifo = append(q.fifo, ev)
}

// replaceTop overwrites the heap's root with ev and sifts it down: one
// pop and one push in a single pass. The engine calls it when the root
// is the queue's head step event and ev is that step's follow-up.
func (q *eventQueue) replaceTop(ev event) { q.heap.siftDown(ev) }

// eventHeap is a hand-rolled binary min-heap under before.
// container/heap would box every pushed and popped event into an
// interface — one garbage allocation per simulated event, right on the
// hottest loop of the simulator — so the sift operations are written
// out against the concrete slice instead.
type eventHeap []event

// push and siftDown move a hole along the sift path and write the
// moving event once at its final slot.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&e, &s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	*h = s[:n]
	if n > 0 {
		h.siftDown(last)
	}
	return top
}

// siftDown writes e at the root of a non-empty heap, in place of the
// event there, and restores the heap order below it.
func (h eventHeap) siftDown(e event) {
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(&h[r], &h[c]) {
			c = r
		}
		if !before(&h[c], &e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}
