package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"meshalloc/internal/alloc"
	"meshalloc/internal/fault"
	"meshalloc/internal/sim"
	"meshalloc/internal/topo"
)

// tracer is the traced pass: it steps engines one event at a time from
// the benchmark's own code, classifies each Step by the CoreStats
// counter it advanced, and times the calls into every layer the engine
// exposes. Allocator cost is measured afterwards by replaying the
// engine's occupancy deltas against a fresh allocator.
type tracer struct {
	// Step durations in ns by event class.
	arrival, msg, finish, fault sampler
	busyNs                      float64
	// loopNs is the wall time of the traced loops and ckptNs the part of
	// it spent in checkpoints; extraNs is the part of ckptNs the benchmark
	// adds to workloads that take none of their own, which the overhead
	// comparison leaves out.
	loopNs, ckptNs, extraNs float64
	// baseNs is the untraced wall time the overhead is measured against.
	baseNs float64
	// genNs is the host time spent generating input jobs.
	genNs   float64
	genJobs int

	// Checkpoints: every snapEvery Steps when the benchmark adds them, or
	// whenever the workload's own hook fires. hookNs is the hook time
	// inside the current Step, which is charged to checkpoints instead.
	snapEvery       int64
	snapshot, audit sampler // ms
	snapBytes       int
	hookNs          float64
	restoreAt       int
	restoreBlob     []byte
	restoreCfg      sim.Config
	restoreMs       float64

	// Simulated counts, summed over every engine the pass ran.
	events, faultEvents, arrivals int64
	rounds, skips                 int64
	messages, hops                int64
	distSec, queueSec             float64
	kills, retries, givenUp       int

	// Allocator replay.
	replayLimit            int
	allocate, release      sampler
	seenAlloc, seenRelease int
	mismatch               int

	errs []string
}

func (t *tracer) errorf(format string, args ...any) {
	t.errs = append(t.errs, fmt.Sprintf(format, args...))
}

// delta is one recorded occupancy change.
type delta struct {
	ids       []int
	allocated bool
}

// faultMark records that the fault event ev was applied before the
// delta at index at.
type faultMark struct {
	at int
	ev fault.Event
}

// deltaLog is the replay input of one engine.
type deltaLog struct {
	cfg    sim.Config
	limit  int
	deltas []delta
	marks  []faultMark
	// faults mirrors the engine's fault stream: each fault Step consumed
	// its next event, so the replay knows which nodes are flagged.
	faults                 *fault.Stream
	seenAlloc, seenRelease int
	steps                  int64
}

// observe attaches a delta log to e, which was built from cfg.
func (t *tracer) observe(e *sim.Engine, cfg sim.Config) (*deltaLog, error) {
	l := &deltaLog{cfg: cfg, limit: t.replayLimit}
	if cfg.Faults.Enabled() {
		fc := cfg.Faults
		if fc.Seed == 0 {
			fc.Seed = cfg.Seed
		}
		s, err := fault.NewStream(fc, e.MachineSize())
		if err != nil {
			return nil, err
		}
		l.faults = s
	}
	e.ObserveDeltas(func(_ float64, ids []int, allocated bool) {
		if allocated {
			l.seenAlloc++
		} else {
			l.seenRelease++
		}
		if l.limit > 0 && len(l.deltas) >= l.limit {
			return
		}
		l.deltas = append(l.deltas, delta{ids: slices.Clone(ids), allocated: allocated})
	})
	return l, nil
}

// step processes one event of e and records its duration under its
// class; it returns false when e has no events left.
func (t *tracer) step(e *sim.Engine, l *deltaLog) bool {
	before := e.CoreStats()
	at := len(l.deltas)
	t.hookNs = 0
	t0 := time.Now()
	ok := e.Step()
	d := float64(time.Since(t0).Nanoseconds()) - t.hookNs
	if !ok {
		return false
	}
	after := e.CoreStats()
	t.busyNs += d
	switch {
	case after.FaultEvents > before.FaultEvents:
		t.fault.add(d)
		if ev, ok := l.faults.Next(); ok {
			l.marks = append(l.marks, faultMark{at: at, ev: ev})
		}
	case after.Arrivals > before.Arrivals:
		t.arrival.add(d)
	case after.Steps > before.Steps:
		t.msg.add(d)
	default:
		t.finish.add(d)
	}
	l.steps++
	if t.snapEvery > 0 && l.steps%t.snapEvery == 0 {
		t.extraNs += t.checkpoint(e, l.cfg)
	}
	return true
}

// checkpoint snapshots and audits e, the way a checkpointing run does
// between events, and returns the time it took in ns.
func (t *tracer) checkpoint(e *sim.Engine, cfg sim.Config) float64 {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := e.Snapshot(&buf); err != nil {
		t.errorf("snapshot: %v", err)
	}
	t1 := time.Now()
	if err := e.Audit(); err != nil {
		t.errorf("checkpoint audit: %v", err)
	}
	t2 := time.Now()
	t.snapshot.add(float64(t1.Sub(t0).Nanoseconds()) / 1e6)
	t.audit.add(float64(t2.Sub(t1).Nanoseconds()) / 1e6)
	t.snapBytes = buf.Len()
	if t.restoreBlob == nil || t.snapshot.n == t.restoreAt {
		t.restoreBlob, t.restoreCfg = buf.Bytes(), cfg
	}
	d := float64(t2.Sub(t0).Nanoseconds())
	t.ckptNs += d
	return d
}

// hook returns a checkpoint callback for SetCheckpoint whose time is
// charged to checkpoints rather than to the Step that fired it.
func (t *tracer) hook(e *sim.Engine, cfg sim.Config) func() {
	return func() { t.hookNs += t.checkpoint(e, cfg) }
}

// done audits a drained engine, adds its counters to the pass and
// replays its allocator deltas. It returns the engine's result.
func (t *tracer) done(e *sim.Engine, l *deltaLog) *sim.Result {
	if e.Deadlocked() {
		t.errorf("engine deadlocked with %d queued", e.Pending())
	}
	if err := e.Audit(); err != nil {
		t.errorf("final audit: %v", err)
	}
	cs := e.CoreStats()
	t.events += cs.Events
	t.faultEvents += cs.FaultEvents
	t.arrivals += cs.Arrivals
	t.rounds += cs.SchedRounds
	t.skips += cs.SchedSkips
	res := e.Result()
	t.messages += res.Net.Messages
	t.hops += res.Net.TotalHops
	t.distSec += res.Net.TotalDistSec
	t.queueSec += res.Net.TotalQueueSec
	t.kills += res.Killed
	t.retries += res.Retried
	t.givenUp += res.GivenUp
	t.seenAlloc += l.seenAlloc
	t.seenRelease += l.seenRelease
	t.replay(l)
	return res
}

// replay re-issues the recorded deltas against a fresh allocator built
// from the same spec and seed: every allocation delta becomes an
// Allocate of its size, which must return exactly the recorded ids, and
// every release delta a Release. Under faults, single-node deltas on
// nodes the mirrored fault stream has flagged are masks, replayed with
// MarkDown and MarkUp.
func (t *tracer) replay(l *deltaLog) {
	dims := l.cfg.Dims
	if len(dims) == 0 {
		dims = []int{l.cfg.MeshW, l.cfg.MeshH}
	}
	g := topo.New(dims)
	a, err := alloc.Spec(g, l.cfg.Alloc, l.cfg.Seed)
	if err != nil {
		t.errorf("replay allocator: %v", err)
		return
	}
	fa, _ := a.(alloc.FaultAware)
	n := g.Size()
	down, drained, masked := make([]bool, n), make([]bool, n), make([]bool, n)
	mi := 0
	for i, d := range l.deltas {
		for ; mi < len(l.marks) && l.marks[mi].at <= i; mi++ {
			ev := l.marks[mi].ev
			switch ev.Kind {
			case fault.NodeDown, fault.NodeUp:
				down[ev.Node] = ev.Kind == fault.NodeDown
			case fault.NodeDrain, fault.NodeUndrain:
				drained[ev.Node] = ev.Kind == fault.NodeDrain
			}
		}
		if fa != nil && len(d.ids) == 1 {
			id := d.ids[0]
			if d.allocated && (down[id] || drained[id]) {
				fa.MarkDown(id)
				masked[id] = true
				continue
			}
			if !d.allocated && masked[id] {
				fa.MarkUp(id)
				masked[id] = false
				continue
			}
		}
		t0 := time.Now()
		if d.allocated {
			got, err := a.Allocate(alloc.Request{Size: len(d.ids)})
			t.allocate.add(float64(time.Since(t0).Nanoseconds()))
			if err != nil || !slices.Equal(got, d.ids) {
				t.mismatch++
			}
		} else {
			a.Release(d.ids)
			t.release.add(float64(time.Since(t0).Nanoseconds()))
		}
	}
}

// restore times one RestoreEngine of the kept snapshot.
func (t *tracer) restore() {
	if t.restoreBlob == nil {
		t.errorf("no snapshot to restore")
		return
	}
	t0 := time.Now()
	_, err := sim.RestoreEngine(bytes.NewReader(t.restoreBlob), t.restoreCfg)
	t.restoreMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		t.errorf("restore: %v", err)
	}
}

// mean returns the mean of a sampler's values, 0 when it has none.
func mean(s *sampler) float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// metrics returns the per-layer metrics of the pass in the order
// BENCHMARK.json declares them.
func (t *tracer) metrics() []metric {
	var ms []metric
	sampled := func(name, unit string, s *sampler, withCount bool) {
		sum := s.summary()
		ms = append(ms,
			metric{name: name + ".p50", value: sum.p50, unit: unit, samples: len(s.xs)},
			metric{name: name + ".tail", value: sum.tail, unit: unit, samples: len(s.xs), pct: sum.tailP})
		if withCount {
			ms = append(ms, metric{name: name + ".count", value: float64(sum.count), unit: "count"})
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	sampled("sim.arrival_ns", "ns", &t.arrival, true)
	sampled("sim.msg_ns", "ns", &t.msg, true)
	sampled("sim.finish_ns", "ns", &t.finish, true)
	ms = append(ms,
		metric{name: "sim.busy_s", value: t.busyNs / 1e9, unit: "s"},
		metric{name: "sim.glue_s", value: (t.loopNs - t.busyNs - t.genNs - t.ckptNs) / 1e9, unit: "s"},
		metric{name: "sim.events_per_sec", value: ratio(float64(t.events+t.faultEvents), t.busyNs/1e9), unit: "1/s"},
		metric{name: "sched.rounds", value: float64(t.rounds), unit: "count"},
		metric{name: "sched.skips", value: float64(t.skips), unit: "count"},
		metric{name: "sched.rounds_per_arrival", value: ratio(float64(t.rounds), float64(t.arrivals)), unit: "ratio"},
	)
	sampled("alloc.allocate_ns", "ns", &t.allocate, true)
	sampled("alloc.release_ns", "ns", &t.release, false)
	allocNs := mean(&t.allocate)*float64(t.seenAlloc) + mean(&t.release)*float64(t.seenRelease)
	ms = append(ms,
		metric{name: "alloc.busy_share", value: 100 * ratio(allocNs, t.busyNs), unit: "%"},
		metric{name: "alloc.replay_mismatch", value: float64(t.mismatch), unit: "count"},
		metric{name: "netsim.ns_per_msg", value: ratio(t.msg.sum, float64(t.messages)), unit: "ns"},
		metric{name: "netsim.messages", value: float64(t.messages), unit: "count"},
		metric{name: "netsim.avg_hops", value: ratio(float64(t.hops), float64(t.messages)), unit: "hops"},
		metric{name: "netsim.queue_share", value: 100 * ratio(t.queueSec, t.distSec), unit: "%"},
		metric{name: "trace.gen_ns_per_job", value: ratio(t.genNs, float64(t.genJobs)), unit: "ns"},
		metric{name: "fault.events", value: float64(t.faultEvents), unit: "count"},
		metric{name: "fault.kills", value: float64(t.kills), unit: "count"},
		metric{name: "fault.retries", value: float64(t.retries), unit: "count"},
		metric{name: "fault.given_up", value: float64(t.givenUp), unit: "count"},
	)
	sampled("snap.snapshot_ms", "ms", &t.snapshot, true)
	ms = append(ms,
		metric{name: "snap.bytes", value: float64(t.snapBytes), unit: "B"},
		metric{name: "snap.restore_ms", value: t.restoreMs, unit: "ms"},
	)
	sampled("sim.audit_ms", "ms", &t.audit, true)
	overhead := t.loopNs - t.extraNs - t.baseNs
	ms = append(ms, metric{name: "trace_overhead_pct", value: 100 * ratio(overhead, t.baseNs), unit: "%"})
	return ms
}

// notes describes the layers only some workloads exercise, which are
// printed but are not metrics: a metric must be measured on every
// workload.
func (t *tracer) notes() []string {
	var out []string
	if t.fault.n > 0 {
		s := t.fault.summary()
		out = append(out, fmt.Sprintf("sim.fault_ns p50 %.0f ns, p%.0f %.0f ns over %d fault events", s.p50, s.tailP, s.tail, s.count))
	}
	if t.replayLimit > 0 && t.seenAlloc+t.seenRelease > t.replayLimit {
		out = append(out, fmt.Sprintf("alloc replay covered the first %d of %d deltas; alloc.busy_share extrapolates their mean cost",
			t.replayLimit, t.seenAlloc+t.seenRelease))
	}
	return out
}
