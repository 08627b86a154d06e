package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// eventBefore is the (t, seq) order the event heap must pop in.
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

// drainCheck pops q dry and fails on the first divergence from want in
// (t, seq, kind), also checking that head() reports each event before
// pop returns it.
func drainCheck(t *testing.T, q *eventHeap, want []event, tag string) {
	t.Helper()
	for i, w := range want {
		ht, hk, ok := q.head()
		got := q.pop()
		if !ok || ht != got.t || hk != got.kind {
			t.Fatalf("%s: head() reported (%v, kind %d, ok %v) but pop returned (%v, kind %d)",
				tag, ht, hk, ok, got.t, got.kind)
		}
		if got.t != w.t || got.seq != w.seq || got.kind != w.kind {
			t.Fatalf("%s: pop %d: got (t=%v seq=%d kind=%d), want (t=%v seq=%d kind=%d)",
				tag, i, got.t, got.seq, got.kind, w.t, w.seq, w.kind)
		}
	}
	if q.len() != 0 {
		t.Fatalf("%s: %d stray events left in queue", tag, q.len())
	}
	if _, _, ok := q.head(); ok {
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

// TestEventHeapStreams pushes each stream into the heap and requires the
// sort oracle's pop order, across push-all-then-pop-all and interleaved
// push/pop schedules. In the interleaved schedule each pop must return
// the earliest event pushed and not yet popped.
func TestEventHeapStreams(t *testing.T) {
	for name, gen := range eventStreams {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, 1, 7, 300, 5000} {
				rng := rand.New(rand.NewSource(int64(n) + 11))
				q := &eventHeap{}
				var pushed []event
				for i := 0; i < n; i++ {
					ev := event{t: gen(rng, i), seq: int64(i), kind: int32(i % 3)}
					q.push(ev)
					pushed = append(pushed, ev)
				}
				drainCheck(t, q, sortedOracle(pushed), name)

				// Interleaved: random mix of pushes and pops, then drain.
				rng = rand.New(rand.NewSource(int64(n) + 77))
				q = &eventHeap{}
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
					q.push(ev)
					live = append(live, ev)
				}
				drainCheck(t, q, sortedOracle(live), name+" interleaved drain")
			}
		})
	}
}

// TestEventHeapFaultFirstTieRule replays the engine's fault-versus-event
// tie decision: a pending fault at exactly the head event's time must
// win (processFault runs first), the head() t the heap reports is what
// the engine compares against, and same-time events pop in seq order.
func TestEventHeapFaultFirstTieRule(t *testing.T) {
	q := &eventHeap{}
	// Three events at t=5 (seq order 1,2,3) and one at t=7.
	evs := []event{
		{t: 5, seq: 2, kind: kindStep},
		{t: 7, seq: 4, kind: kindFinish},
		{t: 5, seq: 1, kind: kindArrival},
		{t: 5, seq: 3, kind: kindFinish},
	}
	for _, ev := range evs {
		q.push(ev)
	}
	faultT := 5.0
	ht, _, ok := q.head()
	if !ok || !(faultT <= ht) {
		t.Fatalf("fault at %v must apply before head at %v", faultT, ht)
	}
	drainCheck(t, q, sortedOracle(evs), "tie rule")
}

// TestEventIs24Bytes pins the compact event layout: every heap sift
// moves events, so their size is a direct cost of the queue.
func TestEventIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 24 {
		t.Fatalf("event is %d bytes, want 24", n)
	}
}
