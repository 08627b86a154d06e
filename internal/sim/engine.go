package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"meshalloc/internal/alloc"
	"meshalloc/internal/comm"
	"meshalloc/internal/fault"
	"meshalloc/internal/netsim"
	"meshalloc/internal/sched"
	"meshalloc/internal/snap"
	"meshalloc/internal/stats"
	"meshalloc/internal/topo"
	"meshalloc/internal/trace"
)

// Observer receives each finished job's record the moment it completes,
// before the retention policy applies: observers see every record even
// when Config.KeepRecords is Discard, which is how results stream out
// of a constant-memory run.
type Observer func(JobRecord)

// DeltaObserver receives the node-id delta of every occupancy change:
// the ids a starting job just received (allocated true) or a finishing
// job just returned (allocated false), with the scaled simulation time
// of the change. Deltas are exactly the invalidation sets incremental
// consumers need — a caching scorer or an external mirror of the
// free-map updates only the changed region instead of re-reading the
// machine. The ids slice is the engine's own and must not be retained
// or mutated past the call.
type DeltaObserver func(now float64, ids []int, allocated bool)

func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

// Engine is the resumable discrete-event core of the simulator. Where
// the batch Run builds the world, replays one trace to completion and
// returns every record in memory, an Engine exposes the lifecycle
// directly: construct with NewEngine, inject jobs at any time with
// Submit (online submission — the clock may already be running),
// advance with Step, RunUntil or Drain, stream per-job records through
// Observe, and read streaming aggregates with Result at any point.
//
// With Config.KeepRecords/KeepNodes set to Discard, the engine holds
// O(machine + in-flight jobs) memory regardless of how many jobs pass
// through — the shape a million-job open-system run needs.
//
// The engine clock runs in scaled simulation time (original seconds
// compressed by Config.Load on arrivals and Config.TimeScale overall);
// records re-inflate to original seconds exactly as in Run.
type Engine struct {
	cfg       Config
	grid      *topo.Grid
	allocator alloc.Allocator
	pattern   *comm.Pattern
	policy    sched.Policy
	isFCFS    bool
	isEASY    bool
	net       *netsim.Network
	rng       *stats.RNG

	// events holds every queued arrival, step and finish event: sorted
	// arrivals in its FIFO, the rest in its heap (see eventQueue).
	events eventQueue
	seq    int64
	now    float64
	// queue holds the pending jobs from index qh on, in FCFS arrival
	// order and already scaled (see pendingJobs, enqueue and dequeue).
	queue []trace.Job
	qh    int
	store jobStore // in-flight job rows, handle-indexed
	// slots is the arrival slab: the (already scaled) job of every
	// queued arrival event, at the event's h. Freed slots recycle LIFO
	// through slotFree.
	slots    []trace.Job
	slotFree []int32

	// Scheduler-round state. Every policy reads queue itself; EASY, the
	// one policy that reads the running set, also reads runOrd/runOrdH,
	// the running set ordered by (EstEnd, handle), maintained at the
	// events that change it instead of rebuilt every round (and empty
	// under FCFS and SJF). blocked is the head-blocked watermark: set
	// when an FCFS/SJF round ends without a dispatch, letting the next
	// round short-circuit in O(1), and invalidated only on release and
	// fault transitions (plus arrivals that can change the decision: any
	// arrival under SJF, an arrival into an empty queue under FCFS).
	// EASY never blocks — its backfill decisions depend on the clock.
	runOrd   []sched.Running
	runOrdH  []int32
	canBlock bool
	blocked  bool

	// setScratch backs the per-finish dispersal metrics (SetStats), and
	// msgBuf the random pattern's bursts.
	setScratch topo.SetScratch
	msgBuf     []comm.Msg
	core       stats.EventCoreStats

	observers []Observer
	deltaObs  []DeltaObserver
	records   []JobRecord

	// Streaming aggregates, updated at every finish so Result never
	// needs the retained records.
	finished   int
	respSum    float64
	respMedian *stats.P2Quantile
	totalComps int
	contig     int
	makespan   float64

	// Time-weighted occupancy accounting.
	busyProcs   int
	lastAccount float64
	busyArea    float64 // processor-seconds held by jobs
	queueArea   float64 // job-seconds spent queued

	// held buffers a job RunSource pulled from its source but not yet
	// submitted — because it arrives past the horizon, or because the
	// clock is still advancing toward its arrival. A later RunSource
	// call resumes with it instead of losing it, and a snapshot taken
	// mid-advance carries it.
	held    trace.Job
	hasHeld bool

	// submitted counts jobs accepted by Submit, the input side of the
	// job-conservation invariant Audit checks.
	submitted int

	// Periodic hooks, both driven by the count of processed events:
	// auditEvery runs Audit (panicking on violation, like every other
	// bookkeeping check), ckptEvery fires the checkpoint callback.
	auditEvery int64
	sinceAudit int64
	ckptEvery  int64
	sinceCkpt  int64
	ckptFn     func()

	// Fault-injection state; all nil/zero on a fault-free engine, and
	// every hot-path touch is gated on faults != nil so the fault-free
	// event loop is unchanged instruction for instruction.
	faults     *fault.Stream
	faultable  alloc.FaultAware
	down       []bool      // hard-failed nodes
	drained    []bool      // administratively drained nodes
	masked     []bool      // nodes currently marked down in the allocator
	owner      []int32     // occupying job handle per node (-1 free), for O(1) kill lookup
	flagged    int         // count of down-or-drained nodes
	maskedN    int         // count of masked nodes
	killCount  map[int]int // kills per job ID, for retry bookkeeping
	maskBuf    [1]int      // single-node delta scratch for observers
	retried    int
	givenUp    int
	wastedArea float64 // processor-seconds consumed by later-killed jobs
	downArea   float64 // node-seconds masked out of service

	// fp caches cfgFingerprint(cfg) once a snapshot needs it (0 until
	// then). snapLen is the previous Snapshot's payload length, the size
	// hint for the next one. Snapshot reuses the rest: heapBuf is its
	// copy of the event heap, popped to write the heap's events in (t,
	// seq) order, killIDs the sorted IDs of killCount, and enc the
	// writer itself: the allocator's codec takes it through an
	// interface, so a writer made per call would escape to the heap.
	// None of them is part of the snapshot.
	fp      uint64
	snapLen int
	heapBuf eventHeap
	killIDs []int
	enc     snap.Writer
}

// NewEngine validates cfg and builds an idle engine with an empty queue
// and the clock at zero.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if !(cfg.Load > 0) || math.IsInf(cfg.Load, 1) {
		return nil, fmt.Errorf("sim: Load must be positive and finite, got %v", cfg.Load)
	}
	if !(cfg.TimeScale > 0) || math.IsInf(cfg.TimeScale, 1) {
		return nil, fmt.Errorf("sim: TimeScale must be positive and finite, got %v", cfg.TimeScale)
	}
	dims := cfg.dims()
	if err := topo.CheckDims(dims); err != nil {
		return nil, fmt.Errorf("sim: machine %v: %w", dims, err)
	}
	var m *topo.Grid
	if cfg.Torus {
		m = topo.NewTorus(dims)
	} else {
		m = topo.New(dims)
	}
	allocator, err := alloc.Spec(m, cfg.Alloc, cfg.Seed)
	if err != nil {
		return nil, err
	}
	pattern, err := comm.ByName(cfg.Pattern)
	if err != nil {
		return nil, err
	}
	policy, err := sched.ByName(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	if cfg.AuditEvery < 0 {
		return nil, fmt.Errorf("sim: AuditEvery must be >= 0, got %d", cfg.AuditEvery)
	}
	_, isFCFS := policy.(sched.FCFS)
	_, isEASY := policy.(sched.EASY)
	e := &Engine{
		cfg:        cfg,
		grid:       m,
		allocator:  allocator,
		pattern:    pattern,
		policy:     policy,
		isFCFS:     isFCFS,
		isEASY:     isEASY,
		net:        netsim.New(m, cfg.Net),
		rng:        stats.NewRNG(cfg.Seed),
		respMedian: stats.NewP2Quantile(0.5),
		auditEvery: int64(cfg.AuditEvery),
		canBlock:   !isEASY,
	}
	if cfg.Faults.Enabled() {
		if err := e.initFaults(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// initFaults validates the fault configuration and arms the engine's
// fault state. The failure clocks default to the run seed so a plain
// Config{Seed: s, Faults: ...} is fully determined by s.
func (e *Engine) initFaults() error {
	fc := e.cfg.Faults
	if fc.Seed == 0 {
		fc.Seed = e.cfg.Seed
	}
	fa, ok := e.allocator.(alloc.FaultAware)
	if !ok {
		return fmt.Errorf("sim: allocator %s cannot mask failed nodes; fault injection needs a FaultAware allocator (mc, mc1x1, genalg, random, submesh, or a curve/strategy form)",
			e.allocator.Name())
	}
	if err := e.cfg.Retry.Validate(); err != nil {
		return err
	}
	s, err := fault.NewStream(fc, e.grid.Size())
	if err != nil {
		return err
	}
	n := e.grid.Size()
	e.faults = s
	e.faultable = fa
	e.down = make([]bool, n)
	e.drained = make([]bool, n)
	e.masked = make([]bool, n)
	e.owner = make([]int32, n)
	for i := range e.owner {
		e.owner[i] = -1
	}
	e.killCount = map[int]int{}
	return nil
}

// faultTime returns the time of the fault stream's next event, or
// ok=false once the stream is exhausted. The time is contracted by
// TimeScale exactly as job runtimes are (node lifetimes are machine
// wall clock, so Load — an arrival-rate knob — does not apply).
// Callers gate it on faults != nil.
func (e *Engine) faultTime() (float64, bool) {
	ev, ok := e.faults.Peek()
	return ev.T * e.cfg.TimeScale, ok
}

// Observe registers fn to be called with every finished job's record,
// in finish order. Observers registered later are called later.
func (e *Engine) Observe(fn Observer) {
	e.observers = append(e.observers, fn)
}

// ObserveDeltas registers fn to be called with every allocate/release
// node delta, in event order. Registration order is call order.
func (e *Engine) ObserveDeltas(fn DeltaObserver) {
	e.deltaObs = append(e.deltaObs, fn)
}

// MachineSize returns the number of processors in the machine.
func (e *Engine) MachineSize() int { return e.grid.Size() }

// NumFree returns the number of currently unallocated processors.
func (e *Engine) NumFree() int { return e.allocator.NumFree() }

// Now returns the engine clock in scaled simulation time.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of jobs queued but not yet started.
func (e *Engine) Pending() int { return len(e.queue) - e.qh }

// RunningJobs returns the number of jobs currently holding processors.
func (e *Engine) RunningJobs() int { return e.store.live }

// Finished returns the number of jobs that have completed.
func (e *Engine) Finished() int { return e.finished }

// CoreStats snapshots the event-core counters: events processed by
// kind, and scheduler rounds run versus skipped by the head-blocked
// watermark.
func (e *Engine) CoreStats() stats.EventCoreStats { return e.core }

// ErrOversize is the sentinel matched by errors.Is for jobs rejected
// because they can never (or, under strict capacity, currently cannot)
// be placed. The concrete error is an *OversizeError carrying the
// numbers.
var ErrOversize = errors.New("sim: job exceeds machine capacity")

// OversizeError reports a job rejected at Submit because its size
// exceeds Capacity — the whole machine, or, when Strict is set, the
// currently available (not failed, not drained) node count. Failing
// fast here, with the numbers attached, beats the old behaviour of
// letting the job sit queued until Deadlocked() tripped at the end of
// the run.
type OversizeError struct {
	ID       int
	Size     int
	Capacity int
	Strict   bool // rejection against available rather than total capacity
}

// Error implements error.
func (e *OversizeError) Error() string {
	if e.Strict {
		return fmt.Sprintf("sim: job %d needs %d processors, only %d currently in service",
			e.ID, e.Size, e.Capacity)
	}
	return fmt.Sprintf("sim: job %d needs %d processors, machine has %d (filter the trace first)",
		e.ID, e.Size, e.Capacity)
}

// Is reports equality against the ErrOversize sentinel.
func (e *OversizeError) Is(target error) bool { return target == ErrOversize }

// Submit injects a job given in original (unscaled) trace units: the
// engine applies Load to its arrival and TimeScale to both arrival and
// runtime, exactly as Run scales a whole trace. Jobs may be submitted
// while the clock runs; an arrival already in the past is clamped to
// the current clock. Oversized jobs are rejected with an *OversizeError
// (errors.Is(err, ErrOversize)); with Faults.StrictCapacity set, so are
// jobs larger than the currently available node count.
func (e *Engine) Submit(j trace.Job) error {
	if j.Size > e.grid.Size() {
		return &OversizeError{ID: j.ID, Size: j.Size, Capacity: e.grid.Size()}
	}
	if j.Size <= 0 {
		return fmt.Errorf("sim: job %d has invalid size %d", j.ID, j.Size)
	}
	if e.cfg.Faults.StrictCapacity && j.Size > e.grid.Size()-e.flagged {
		return &OversizeError{ID: j.ID, Size: j.Size, Capacity: e.grid.Size() - e.flagged, Strict: true}
	}
	// Contract the arrival by Load and then by TimeScale, in that order,
	// and the runtime by TimeScale: the golden digests pin this exact
	// sequence of float operations.
	j.Arrival *= e.cfg.Load
	j.Arrival *= e.cfg.TimeScale
	j.Runtime *= e.cfg.TimeScale
	if j.Arrival < e.now {
		j.Arrival = e.now
	}
	e.submitted++
	e.pushArrival(j.Arrival, j)
	return nil
}

// SetCheckpoint arms (or, with every <= 0 or fn nil, disarms) the
// periodic checkpoint hook: fn runs after every `every`-th processed
// event, at a point where the engine is between events and therefore
// snapshot-consistent — the natural place for fn to call Snapshot.
func (e *Engine) SetCheckpoint(every int64, fn func()) {
	if every <= 0 || fn == nil {
		e.ckptEvery, e.ckptFn = 0, nil
		return
	}
	e.ckptEvery, e.ckptFn = every, fn
	e.sinceCkpt = 0
}

// afterEvent runs the periodic hooks once per fully-processed event
// (job or fault), when the engine is in a consistent between-events
// state. A failed periodic audit panics: it means engine bookkeeping
// has diverged, the same class of bug every other internal check
// treats as fatal.
func (e *Engine) afterEvent() {
	if e.auditEvery > 0 {
		if e.sinceAudit++; e.sinceAudit >= e.auditEvery {
			e.sinceAudit = 0
			if err := e.Audit(); err != nil {
				panic(fmt.Sprintf("sim: periodic audit at t=%v: %v", e.now, err))
			}
		}
	}
	if e.ckptEvery > 0 {
		if e.sinceCkpt++; e.sinceCkpt >= e.ckptEvery {
			e.sinceCkpt = 0
			e.ckptFn()
		}
	}
}

// runInsert places handle h in the end-time-ordered running index at
// its (EstEnd, handle) position.
func (e *Engine) runInsert(h int32, end float64, size int) {
	i := len(e.runOrd)
	for i > 0 && (e.runOrd[i-1].EstEnd > end || (e.runOrd[i-1].EstEnd == end && e.runOrdH[i-1] > h)) {
		i--
	}
	e.runOrd = append(e.runOrd, sched.Running{})
	e.runOrdH = append(e.runOrdH, 0)
	copy(e.runOrd[i+1:], e.runOrd[i:])
	copy(e.runOrdH[i+1:], e.runOrdH[i:])
	e.runOrd[i] = sched.Running{Size: size, EstEnd: end}
	e.runOrdH[i] = h
}

// runRemove drops handle h from the end-time-ordered running index.
func (e *Engine) runRemove(h int32) {
	for i, hh := range e.runOrdH {
		if hh == h {
			e.runOrd = append(e.runOrd[:i], e.runOrd[i+1:]...)
			e.runOrdH = append(e.runOrdH[:i], e.runOrdH[i+1:]...)
			return
		}
	}
}

// Step processes the single earliest event and returns true, or returns
// false when no events remain. Fault events interleave by time with job
// events; on an exact tie the fault applies first, so a job finishing
// at the instant its node dies is killed, not completed — the
// conservative reading, and the ordering contract DESIGN.md documents.
func (e *Engine) Step() bool {
	ev, ok := e.events.head()
	if e.faults != nil {
		if ft, has := e.faultTime(); has && (!ok || ft <= ev.t) {
			// With no job events left, keep the machine evolving only
			// while queued work could still be unblocked by a repair;
			// otherwise the run is over and the infinite failure
			// stream must not keep it alive.
			if !ok && e.Pending() == 0 {
				return false
			}
			e.processFault()
			return true
		}
	}
	if !ok {
		return false
	}
	e.core.Events++
	e.account(ev.t)
	if ev.t > e.now {
		e.now = ev.t
	}
	if ev.kind == kindStep && !e.store.rows[ev.h].dead {
		// A live step is the heap's root (arrivals alone use the FIFO),
		// and its follow-up event takes its place there: one sift
		// instead of a pop and a push.
		e.core.Steps++
		e.events.replaceTop(e.step(ev.h, ev.t))
		e.afterEvent()
		return true
	}
	e.events.pop()
	switch ev.kind {
	case kindArrival:
		e.core.Arrivals++
		wasEmpty := e.Pending() == 0
		e.enqueue(e.takeArrival(ev.h))
		if e.isFCFS {
			// Drain every same-timestamp arrival at the head of the queue
			// before scheduling once, so simultaneous arrivals share one
			// scheduler round. Under FCFS this is bit-identical to
			// scheduling after each arrival: the drain stops at any
			// earlier-sequenced non-arrival event, queue order is
			// arrival order either way, and the combined trySchedule
			// starts the same jobs in the same order consuming the RNG
			// identically. Policies that inspect the whole queue (SJF)
			// keep per-arrival scheduling.
			for {
				next, ok := e.events.head()
				if !ok || next.t != ev.t || next.kind != kindArrival {
					break
				}
				e.events.pop()
				e.core.Events++
				e.core.Arrivals++
				e.enqueue(e.takeArrival(next.h))
			}
		}
		// A new arrival re-arms a blocked FCFS round only when it
		// becomes the head (empty queue); under SJF any arrival can
		// change the pick, and EASY never blocks.
		if wasEmpty || !e.isFCFS {
			e.blocked = false
		}
		e.trySchedule(ev.t)
	case kindStep:
		// Stale event of a killed job (live steps are handled above):
		// the pop was its last reference, so the handle recycles here.
		e.core.Steps++
		e.store.release(ev.h)
	case kindFinish:
		e.core.Finishes++
		if e.store.rows[ev.h].dead {
			e.store.release(ev.h)
			break
		}
		e.finish(ev.h, ev.t)
	}
	e.afterEvent()
	return true
}

// RunUntil processes every event with time <= t (scaled simulation
// time) and advances the clock and occupancy accounting to t. Pending
// fault events up to t are applied even when no job event forces them,
// so the machine's availability (and its down-time accounting) is
// current at t for the next submission.
func (e *Engine) RunUntil(t float64) {
	for {
		ev, ok := e.events.head()
		if e.faults != nil {
			if ft, has := e.faultTime(); has && ft <= t && (!ok || ft <= ev.t) {
				e.processFault()
				continue
			}
		}
		if ok && ev.t <= t {
			e.Step()
			continue
		}
		break
	}
	e.account(t)
	if t > e.now {
		e.now = t
	}
}

// Drain processes events until none remain.
func (e *Engine) Drain() {
	for e.Step() {
	}
}

// Deadlocked reports whether the engine has no events left but jobs
// still queued or running — the state batch Run reports as an error
// (a contiguous allocator can strand the queue head forever). Pending
// fault events count as events: a queued job stuck behind failed nodes
// is only deadlocked once the repair stream has nothing more to offer.
func (e *Engine) Deadlocked() bool {
	if e.faults != nil {
		if _, has := e.faultTime(); has {
			return false
		}
	}
	return e.events.len() == 0 && (e.Pending() > 0 || e.store.live > 0)
}

// Complete ends a run: it processes every remaining event, reports a
// deadlock — jobs still queued or running with no event left to move
// them — as an error, and closes with one pass of the invariant auditor.
// The audit costs O(machine) against a whole run's work, and a
// divergence caught here names the broken invariant instead of
// surfacing as a silently wrong digest.
func (e *Engine) Complete() error {
	e.Drain()
	if e.Deadlocked() {
		return fmt.Errorf("sim: deadlock with %d queued and %d running jobs",
			e.Pending(), e.store.live)
	}
	return e.Audit()
}

// RunSource pumps src into the engine lazily: each job is submitted
// only when the clock reaches its arrival, so the event queue stays
// bounded by the in-flight work rather than the stream length. With
// horizon 0 the stream runs until the source is exhausted and the
// remaining events drain. horizon > 0 stops at the first job arriving
// after horizon (original trace seconds) and advances the clock
// exactly to the horizon, leaving in-flight work pending — so resumed
// calls with growing horizons replay the identical event sequence a
// single continuous run would, and the past-horizon job is held, not
// lost: the next RunSource call submits it before pulling from its
// source again. An exhausted source ends with Complete; call Complete
// to let a horizon-stopped run finish its in-flight jobs.
func (e *Engine) RunSource(src trace.Source, horizon float64) error {
	for {
		if !e.hasHeld {
			j, ok := src.Next()
			if !ok {
				break
			}
			// Hold the job the moment it leaves the source: a snapshot
			// taken while the clock advances toward its arrival then
			// carries it, and the restored engine re-submits it instead
			// of losing it.
			e.held, e.hasHeld = j, true
		}
		j := e.held
		if horizon > 0 && j.Arrival > horizon {
			e.RunUntil(horizon * e.cfg.Load * e.cfg.TimeScale)
			return nil
		}
		e.RunUntil(j.Arrival * e.cfg.Load * e.cfg.TimeScale)
		if err := e.Submit(j); err != nil {
			return err
		}
		e.held, e.hasHeld = trace.Job{}, false
	}
	return e.Complete()
}

// Result snapshots the run's aggregate outcome. With KeepRecords left
// at Keep it matches batch Run field for field; with Discard, Records
// is nil, MedianResponse is the P² streaming estimate, and everything
// else is exact.
func (e *Engine) Result() *Result {
	res := &Result{
		Config:          e.cfg,
		Records:         e.records,
		Jobs:            e.finished,
		Net:             e.net.Stats(),
		NodeUtilization: e.net.NodeUtilization(),
		Makespan:        e.makespan,
	}
	if e.finished > 0 {
		res.MeanResponse = e.respSum / float64(e.finished)
		res.PctContiguous = 100 * float64(e.contig) / float64(e.finished)
		res.AvgComponents = float64(e.totalComps) / float64(e.finished)
	}
	if e.cfg.KeepRecords == Keep {
		responses := make([]float64, 0, len(e.records))
		for i := range e.records {
			responses = append(responses, e.records[i].Response)
		}
		res.MedianResponse = stats.Percentile(responses, 50)
	} else {
		res.MedianResponse = e.respMedian.Value()
	}
	if e.lastAccount > 0 {
		res.UtilizationPct = 100 * e.busyArea / (e.lastAccount * float64(e.grid.Size()))
		res.MeanQueueLen = e.queueArea / e.lastAccount
	}
	res.Killed = e.retried + e.givenUp
	res.Retried = e.retried
	res.GivenUp = e.givenUp
	if e.busyArea > 0 {
		res.WastedPct = 100 * e.wastedArea / e.busyArea
	}
	if e.lastAccount > 0 {
		area := e.lastAccount * float64(e.grid.Size())
		res.DownPct = 100 * e.downArea / area
		res.GoodputPct = 100 * (e.busyArea - e.wastedArea) / area
	}
	return res
}

// account integrates the time-weighted occupancy up to now.
func (e *Engine) account(now float64) {
	if now > e.lastAccount {
		e.busyArea += float64(e.busyProcs) * (now - e.lastAccount)
		e.queueArea += float64(e.Pending()) * (now - e.lastAccount)
		e.downArea += float64(e.maskedN) * (now - e.lastAccount)
		e.lastAccount = now
	}
}

// processFault takes the fault stream's next event and applies it.
// Availability flags (down, drained) and the allocator mask are kept
// separate: a node is masked in the allocator exactly when it is
// flagged unavailable and not occupied by a running job — an occupied
// node hit by NodeDown is masked right after its job's release, and a
// drained node's job runs to completion with the mask applied at
// finish.
func (e *Engine) processFault() {
	ev, _ := e.faults.Next()
	ev.T *= e.cfg.TimeScale
	e.core.FaultEvents++
	e.account(ev.T)
	if ev.T > e.now {
		e.now = ev.T
	}
	n := ev.Node
	switch ev.Kind {
	case fault.NodeDown:
		if e.down[n] {
			break
		}
		e.setFlag(n, true, true)
		if h := e.owner[n]; h >= 0 {
			e.killJob(h, e.now)
		} else if !e.masked[n] {
			e.mask(n)
		}
	case fault.NodeUp:
		if !e.down[n] {
			break
		}
		e.setFlag(n, true, false)
		if e.masked[n] && !e.drained[n] {
			e.unmask(n)
			e.trySchedule(e.now)
		}
	case fault.NodeDrain:
		if e.drained[n] {
			break
		}
		e.setFlag(n, false, true)
		if e.owner[n] < 0 && !e.masked[n] {
			e.mask(n)
		}
	case fault.NodeUndrain:
		if !e.drained[n] {
			break
		}
		e.setFlag(n, false, false)
		if e.masked[n] && !e.down[n] {
			e.unmask(n)
			e.trySchedule(e.now)
		}
	}
	e.afterEvent()
}

// setFlag sets the down (isDown true) or drained flag of node n and
// maintains the count of unavailable nodes behind strict-capacity
// submission.
func (e *Engine) setFlag(n int, isDown, v bool) {
	was := e.down[n] || e.drained[n]
	if isDown {
		e.down[n] = v
	} else {
		e.drained[n] = v
	}
	is := e.down[n] || e.drained[n]
	if is && !was {
		e.flagged++
	} else if was && !is {
		e.flagged--
	}
}

// mask marks a free node busy in the allocator — occupancy indexes,
// word scans and free counts all see it as taken — and notifies delta
// observers so external free-map mirrors track fault masking exactly
// like allocations. Any fault transition invalidates the head-blocked
// watermark: with SJF a shrunken free set can change which job is
// picked, and clearing on every transition is cheap because fault
// events are rare.
func (e *Engine) mask(n int) {
	e.faultable.MarkDown(n)
	e.masked[n] = true
	e.maskedN++
	e.blocked = false
	e.maskBuf[0] = n
	for _, fn := range e.deltaObs {
		fn(e.now, e.maskBuf[:], true)
	}
}

// unmask returns a masked node to the allocator's free set.
func (e *Engine) unmask(n int) {
	e.faultable.MarkUp(n)
	e.masked[n] = false
	e.maskedN--
	e.blocked = false
	e.maskBuf[0] = n
	for _, fn := range e.deltaObs {
		fn(e.now, e.maskBuf[:], false)
	}
}

// killJob tears down a running job hit by a node failure: release its
// processors (re-masking the members flagged down or drained), account
// the work lost, and requeue or abandon the job per the retry policy.
// The release may free survivors that admit queued jobs, so the
// scheduler runs before returning.
func (e *Engine) killJob(h int32, now float64) {
	r := &e.store.rows[h]
	nodes, job := r.nodes, r.job
	e.allocator.Release(nodes)
	e.blocked = false
	e.busyProcs -= job.Size
	for _, fn := range e.deltaObs {
		fn(now, nodes, false)
	}
	e.wastedArea += float64(job.Size) * (now - r.start)
	for _, id := range nodes {
		e.owner[id] = -1
		if (e.down[id] || e.drained[id]) && !e.masked[id] {
			e.mask(id)
		}
	}
	e.killCount[job.ID]++
	kills := e.killCount[job.ID]
	if e.isEASY {
		e.runRemove(h)
	}
	// The job's one outstanding step/finish event still references the
	// handle; it recycles when that stale event pops.
	e.store.markDead(h)
	if e.cfg.Retry.Allow(kills) {
		e.retried++
		delay := e.cfg.Retry.Delay(kills) * e.cfg.TimeScale
		e.pushArrival(now+delay, job)
	} else {
		e.givenUp++
		delete(e.killCount, job.ID)
	}
	e.trySchedule(now)
}

// stamp gives ev the next sequence number, its FIFO tie-break.
func (e *Engine) stamp(ev event) event {
	ev.seq = e.seq
	e.seq++
	return ev
}

// pushArrival queues the arrival of job j at time t, its job parked in
// the arrival slab.
func (e *Engine) pushArrival(t float64, j trace.Job) {
	e.events.pushArrival(e.stamp(event{t: t, kind: kindArrival, h: e.park(j)}))
}

// park stores j in a free arrival slot and returns the slot.
func (e *Engine) park(j trace.Job) int32 {
	if n := len(e.slotFree); n > 0 {
		h := e.slotFree[n-1]
		e.slotFree = e.slotFree[:n-1]
		e.slots[h] = j
		return h
	}
	e.slots = append(e.slots, j)
	return int32(len(e.slots) - 1)
}

// takeArrival returns the job parked in slot h and frees the slot: the
// popped arrival event was its only reference.
func (e *Engine) takeArrival(h int32) trace.Job {
	e.slotFree = append(e.slotFree, h)
	return e.slots[h]
}

func (e *Engine) quotaOf(j trace.Job) int64 {
	q := int64(math.Round(j.Runtime * e.cfg.MsgsPerSecond))
	if q < 1 {
		q = 1
	}
	return q
}

// block arms the head-blocked watermark after a dispatch-free FCFS/SJF
// round: until a release, fault transition or decision-changing arrival,
// re-running the round is provably a no-op (a refused Allocate consumes
// no RNG and refusals are monotone under an unchanged or shrinking free
// set), so trySchedule short-circuits in O(1).
func (e *Engine) block() {
	if e.canBlock {
		e.blocked = true
	}
}

// trySchedule starts every job the policy allows at time now.
func (e *Engine) trySchedule(now float64) {
	if e.blocked {
		e.core.SchedSkips++
		return
	}
	e.core.SchedRounds++
	for {
		// runOrd is already (EstEnd, handle)-sorted, as Pick requires
		// (and empty under FCFS and SJF, which never read it), so the
		// round costs one policy scan of the queue and nothing else.
		q := e.pendingJobs()
		pick := e.policy.Pick(q, now, e.allocator.NumFree(), e.runOrd)
		if pick < 0 {
			e.block()
			return
		}
		job := q[pick]
		nodes, err := e.allocator.Allocate(alloc.Request{Size: job.Size})
		if err == alloc.ErrInsufficient {
			// Contiguous allocators (submesh, buddy) can refuse on
			// external fragmentation even when enough processors
			// are free; the job stays queued until a release.
			e.block()
			return
		}
		if err != nil {
			// Any other refusal is a bookkeeping bug.
			panic(fmt.Sprintf("sim: allocator %s refused %d procs with %d free: %v",
				e.allocator.Name(), job.Size, e.allocator.NumFree(), err))
		}
		e.dequeue(pick)
		e.startJob(job, nodes, now)
	}
}

// pendingJobs returns the pending jobs in FCFS arrival order.
func (e *Engine) pendingJobs() []trace.Job { return e.queue[e.qh:] }

// enqueue appends j to the pending queue. A full array with started
// jobs ahead of the head is compacted in place instead of grown, so the
// array grows only when every slot holds a pending job, as it did when
// each start shifted the queue.
func (e *Engine) enqueue(j trace.Job) {
	if len(e.queue) == cap(e.queue) && e.qh > 0 {
		e.queue = e.queue[:copy(e.queue, e.queue[e.qh:])]
		e.qh = 0
	}
	e.queue = append(e.queue, j)
}

// dequeue removes the pending job at index pick of pendingJobs. The head,
// the only job FCFS starts, leaves by advancing qh, so starting it
// moves no other job; the queue resets to empty when its last job
// leaves. A job behind the head, as EASY backfills, is shifted out.
func (e *Engine) dequeue(pick int) {
	if pick == 0 {
		if e.qh++; e.qh == len(e.queue) {
			e.queue, e.qh = e.queue[:0], 0
		}
		return
	}
	i := e.qh + pick
	e.queue = append(e.queue[:i], e.queue[i+1:]...)
}

// startJob registers an allocated job: claim a store handle, draw its
// communication generator (the single RNG consumer, so call order fixes
// determinism), account occupancy, notify delta observers, and schedule
// its first step.
func (e *Engine) startJob(job trace.Job, nodes []int, now float64) {
	h := e.store.alloc()
	r := &e.store.rows[h]
	*r = jobRow{
		job:     job,
		nodes:   nodes,
		gen:     e.pattern.Generator(job.Size, e.rng),
		quota:   e.quotaOf(job),
		start:   now,
		lastArr: now,
		inUse:   true,
	}
	e.busyProcs += job.Size
	if e.owner != nil {
		for _, id := range nodes {
			e.owner[id] = h
		}
	}
	if e.isEASY {
		e.runInsert(h, r.estEnd(), job.Size)
	}
	for _, fn := range e.deltaObs {
		fn(now, nodes, true)
	}
	e.events.push(e.stamp(event{t: now, kind: kindStep, h: h}))
}

// finish runs as its own event at the time the job's last message
// arrived, so processors are not released before that moment.
func (e *Engine) finish(h int32, now float64) {
	r := &e.store.rows[h]
	nodes, job := r.nodes, r.job
	e.allocator.Release(nodes)
	e.blocked = false
	e.busyProcs -= job.Size
	for _, fn := range e.deltaObs {
		fn(now, nodes, false)
	}
	if e.owner != nil {
		// A drained node lets its occupying job finish; the mask lands
		// here, the moment the release frees it.
		for _, id := range nodes {
			e.owner[id] = -1
			if (e.down[id] || e.drained[id]) && !e.masked[id] {
				e.mask(id)
			}
		}
		delete(e.killCount, job.ID)
	}
	if e.isEASY {
		e.runRemove(h)
	}
	end := r.lastArr
	if end < now {
		end = now
	}
	inv := 1 / e.cfg.TimeScale
	// One pass over the coordinate table, bit-identical to the
	// materializing Components/AvgPairwiseDist walks: the same integer
	// total over the same pair count (see topo/setmetrics.go).
	nComps, pairDist := e.grid.SetStats(nodes, &e.setScratch)
	avgPair := 0.0
	if n := len(nodes); n > 1 {
		avgPair = float64(pairDist) / float64(n*(n-1)/2)
	}
	rec := JobRecord{
		ID:          job.ID,
		Size:        job.Size,
		Quota:       r.quota,
		Arrival:     job.Arrival * inv,
		Start:       r.start * inv,
		Finish:      end * inv,
		Response:    (end - job.Arrival) * inv,
		RunTime:     (end - r.start) * inv,
		Wait:        (r.start - job.Arrival) * inv,
		AvgPairwise: avgPair,
		QueuedSec:   r.queued * inv,
		Components:  nComps,
		Contiguous:  nComps == 1,
	}
	if e.cfg.KeepNodes == Keep {
		rec.Nodes = sortedCopy(nodes)
	}
	if r.sent > 0 {
		rec.AvgMsgDist = float64(r.hops) / float64(r.sent)
	}

	// Streaming aggregates and observers see every record; the records
	// slice only grows under the Keep policy.
	e.finished++
	e.respSum += rec.Response
	e.respMedian.Add(rec.Response)
	e.totalComps += rec.Components
	if rec.Contiguous {
		e.contig++
	}
	if rec.Finish > e.makespan {
		e.makespan = rec.Finish
	}
	for _, fn := range e.observers {
		fn(rec)
	}
	if e.cfg.KeepRecords == Keep {
		e.records = append(e.records, rec)
	}

	// The finish event was the job's last reference; recycle the
	// handle for a later arrival.
	e.store.release(h)
	e.trySchedule(end)
}

// step issues the next burst of messages for the job at handle h at
// time now and returns the job's follow-up event, already sequenced:
// its finish once the quota is sent, else its next step.
func (e *Engine) step(h int32, now float64) event {
	r := &e.store.rows[h]
	budget := 1
	if e.cfg.Issue == IssuePhased {
		budget = int(r.quota - r.sent) // until phase boundary
	}
	msgs := r.gen.Burst(budget, &e.msgBuf)
	sums := netsim.Sums{Hops: r.hops, Queued: r.queued}
	maxArr := e.net.Send(msgs, r.nodes, now, &sums)
	r.sent += int64(len(msgs))
	r.hops, r.queued = sums.Hops, sums.Queued
	if maxArr > r.lastArr {
		r.lastArr = maxArr
	}
	if r.sent >= r.quota {
		return e.stamp(event{t: maxArr, kind: kindFinish, h: h})
	}
	// Barrier: the next subphase starts when this burst has arrived.
	return e.stamp(event{t: maxArr, kind: kindStep, h: h})
}
