package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// eventBefore is the (t, seq) order the event queue must pop in.
func eventBefore(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// sortedOracle returns evs in pop order.
func sortedOracle(evs []event) []event {
	out := append([]event(nil), evs...)
	sort.Slice(out, func(i, j int) bool { return eventBefore(out[i], out[j]) })
	return out
}

// enqueue queues ev as the engine would: arrivals through the FIFO's
// admission check, step and finish events on the heap.
func enqueue(q *eventQueue, ev event) {
	if ev.kind == kindArrival {
		q.pushArrival(ev)
	} else {
		q.push(ev)
	}
}

// checkLayout fails unless q's heap is a heap and its FIFO holds only
// arrivals in strictly ascending (t, seq) order.
func checkLayout(t *testing.T, q *eventQueue, tag string) {
	t.Helper()
	for i := 1; i < len(q.heap); i++ {
		if before(&q.heap[i], &q.heap[(i-1)/2]) {
			t.Fatalf("%s: heap[%d] (t=%v seq=%d) is before its parent", tag, i, q.heap[i].t, q.heap[i].seq)
		}
	}
	for i := q.fh; i < len(q.fifo); i++ {
		if q.fifo[i].kind != kindArrival {
			t.Fatalf("%s: FIFO holds a kind-%d event", tag, q.fifo[i].kind)
		}
		if i > q.fh && !before(&q.fifo[i-1], &q.fifo[i]) {
			t.Fatalf("%s: FIFO[%d] (t=%v seq=%d) is not after its predecessor", tag, i, q.fifo[i].t, q.fifo[i].seq)
		}
	}
}

// drainCheck pops q dry and fails on the first divergence from want in
// (t, seq, kind), also checking that head() reports each event before
// pop returns it.
func drainCheck(t *testing.T, q *eventQueue, want []event, tag string) {
	t.Helper()
	for i, w := range want {
		h, ok := q.head()
		got := q.pop()
		if !ok || h != got {
			t.Fatalf("%s: head() reported (%+v, ok %v) but pop returned %+v", tag, h, ok, got)
		}
		if got.t != w.t || got.seq != w.seq || got.kind != w.kind {
			t.Fatalf("%s: pop %d: got (t=%v seq=%d kind=%d), want (t=%v seq=%d kind=%d)",
				tag, i, got.t, got.seq, got.kind, w.t, w.seq, w.kind)
		}
	}
	if q.len() != 0 {
		t.Fatalf("%s: %d stray events left in queue", tag, q.len())
	}
	if _, ok := q.head(); ok {
		t.Fatalf("%s: head() reports an event on an empty queue", tag)
	}
}

// streamGen produces one timestamp per call.
type streamGen func(rng *rand.Rand, i int) float64

var eventStreams = map[string]streamGen{
	"uniform": func(rng *rand.Rand, _ int) float64 {
		return rng.Float64() * 1000
	},
	"clustered": func(rng *rand.Rand, i int) float64 {
		// Tight bursts around a slowly advancing center — the shape a
		// bursty arrival process feeds the engine.
		center := float64(i/64) * 10
		return center + rng.Float64()*0.01
	},
	"heavy-tail": func(rng *rand.Rand, _ int) float64 {
		// Pareto-ish: most events near zero, rare ones far out.
		u := rng.Float64()
		if u < 1e-9 {
			u = 1e-9
		}
		return math.Pow(u, -2) - 1
	},
	"same-t-burst": func(rng *rand.Rand, i int) float64 {
		// Long runs of exactly equal timestamps: the FIFO seq tie rule
		// carries the whole ordering.
		return float64(i / 37)
	},
	"des-clock": func(rng *rand.Rand, i int) float64 {
		// Monotone-ish clock advance with short lookahead, the engine's
		// actual usage pattern.
		return float64(i)*0.5 + rng.Float64()*20
	},
}

// TestEventHeapStreams queues each stream — every third event an
// arrival, so both the FIFO and the heap fill — and requires the sort
// oracle's pop order, across push-all-then-pop-all and interleaved
// push/pop schedules. In the interleaved schedule each pop must return
// the earliest event pushed and not yet popped.
func TestEventHeapStreams(t *testing.T) {
	for name, gen := range eventStreams {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, 1, 7, 300, 5000} {
				rng := rand.New(rand.NewSource(int64(n) + 11))
				q := &eventQueue{}
				var pushed []event
				for i := 0; i < n; i++ {
					ev := event{t: gen(rng, i), seq: int64(i), kind: int32(i % 3)}
					enqueue(q, ev)
					pushed = append(pushed, ev)
				}
				checkLayout(t, q, name)
				drainCheck(t, q, sortedOracle(pushed), name)

				// Interleaved: random mix of pushes and pops, then drain.
				rng = rand.New(rand.NewSource(int64(n) + 77))
				q = &eventQueue{}
				var live []event
				seq := int64(0)
				for i := 0; i < 2*n; i++ {
					if q.len() > 0 && rng.Intn(3) == 0 {
						first := 0
						for k := range live {
							if eventBefore(live[k], live[first]) {
								first = k
							}
						}
						want, got := live[first], q.pop()
						live[first] = live[len(live)-1]
						live = live[:len(live)-1]
						if got.t != want.t || got.seq != want.seq {
							t.Fatalf("%s interleaved: got (t=%v seq=%d), want (t=%v seq=%d)",
								name, got.t, got.seq, want.t, want.seq)
						}
						continue
					}
					ev := event{t: gen(rng, i), seq: seq, kind: int32(i % 3)}
					seq++
					enqueue(q, ev)
					live = append(live, ev)
				}
				checkLayout(t, q, name+" interleaved")
				drainCheck(t, q, sortedOracle(live), name+" interleaved drain")
			}
		})
	}
}

// TestEventHeapFaultFirstTieRule replays the engine's fault-versus-event
// tie decision: a pending fault at exactly the head event's time must
// win (processFault runs first), the head() t the queue reports is what
// the engine compares against, and same-time events pop in seq order.
func TestEventHeapFaultFirstTieRule(t *testing.T) {
	q := &eventQueue{}
	// Three events at t=5 (seq order 1,2,3) and one at t=7.
	evs := []event{
		{t: 5, seq: 2, kind: kindStep},
		{t: 7, seq: 4, kind: kindFinish},
		{t: 5, seq: 1, kind: kindArrival},
		{t: 5, seq: 3, kind: kindFinish},
	}
	for _, ev := range evs {
		enqueue(q, ev)
	}
	faultT := 5.0
	h, ok := q.head()
	if !ok || !(faultT <= h.t) {
		t.Fatalf("fault at %v must apply before head at %v", faultT, h.t)
	}
	drainCheck(t, q, sortedOracle(evs), "tie rule")
}

// TestEventIs24Bytes pins the compact event layout: every heap sift
// and FIFO compaction moves events, so their size is a direct cost of
// the queue.
func TestEventIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 24 {
		t.Fatalf("event is %d bytes, want 24", n)
	}
}

// FuzzEventQueue drives the queue with random interleavings of in-order
// arrivals (at or after the FIFO's tail), out-of-order arrivals, step
// and finish pushes, pops, and root replacements (the engine's in-place
// step, taken whenever the head is a step), checking head() before
// every pop and replacement and the layout after every operation
// against a sort oracle. Each operation is two bytes: the kind, and a
// time offset small enough that equal times, and so seq tie-breaks,
// are common.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 3, 2, 0, 4, 0, 5, 2, 4, 0, 4, 0})
	f.Add([]byte{2, 5, 2, 5, 3, 1, 0, 9, 0, 9, 1, 4, 5, 1, 5, 0, 4, 0, 4, 0, 4, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 4, 0, 4, 0, 0, 1, 4, 0, 0, 2, 0, 3, 4, 0, 4, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := &eventQueue{}
		var live []event
		seq := int64(0)
		next := func(tt float64, kind int32) event {
			seq++
			return event{t: tt, seq: seq, kind: kind}
		}
		// popMin removes the oracle's earliest event, checking it against
		// what head() reports.
		popMin := func(tag string) event {
			first := 0
			for k := range live {
				if eventBefore(live[k], live[first]) {
					first = k
				}
			}
			want := live[first]
			live[first] = live[len(live)-1]
			live = live[:len(live)-1]
			if h, ok := q.head(); !ok || h != want {
				t.Fatalf("%s: head() = %+v (ok %v), oracle's earliest %+v", tag, h, ok, want)
			}
			return want
		}
		for i := 0; i+1 < len(data); i += 2 {
			d := float64(data[i+1] % 8)
			tail := 0.0
			if n := len(q.fifo); n > q.fh {
				tail = q.fifo[n-1].t
			}
			switch data[i] % 6 {
			case 0: // an arrival at or after the FIFO's tail
				ev := next(tail+d, kindArrival)
				q.pushArrival(ev)
				live = append(live, ev)
			case 1: // an arrival that may land before the tail
				ev := next(math.Max(0, tail-d), kindArrival)
				q.pushArrival(ev)
				live = append(live, ev)
			case 2, 3: // a step or finish
				ev := next(d, kindStep+int32(data[i]%6-2))
				q.push(ev)
				live = append(live, ev)
			case 4: // a pop
				if len(live) == 0 {
					continue
				}
				want := popMin("pop")
				if got := q.pop(); got != want {
					t.Fatalf("pop returned %+v, oracle %+v", got, want)
				}
			case 5: // the engine's in-place step, or a pop
				h, ok := q.head()
				if !ok {
					continue
				}
				if h.kind != kindStep {
					want := popMin("pop")
					if got := q.pop(); got != want {
						t.Fatalf("pop returned %+v, oracle %+v", got, want)
					}
					continue
				}
				popMin("replace")
				ev := next(h.t+d, kindStep+int32(data[i+1]%2))
				q.replaceTop(ev)
				live = append(live, ev)
			}
			checkLayout(t, q, "fuzz")
			if q.len() != len(live) {
				t.Fatalf("queue holds %d events, oracle %d", q.len(), len(live))
			}
		}
		drainCheck(t, q, sortedOracle(live), "fuzz drain")
	})
}
