package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"

	"meshalloc/internal/snap"
	"meshalloc/internal/trace"
)

// ErrConfigMismatch is returned (wrapped) by RestoreEngine when the
// snapshot was taken under a semantically different Config than the one
// the restore supplies. AuditEvery, the one field that cannot change
// outcomes, is excluded from the comparison, so a run may legally
// resume at a different audit cadence.
var ErrConfigMismatch = errors.New("sim: snapshot was taken under a different configuration")

// cfgFingerprint hashes the semantic configuration fields — the ones
// that determine the event sequence and outputs. cfg must already have
// defaults applied so "" and "fcfs" schedulers hash identically.
func cfgFingerprint(cfg Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%v|%s|%s|%v|%v|%d|%+v|%s|%d|%v|%d|%d|%+v|%+v",
		cfg.dims(), cfg.Torus, cfg.Alloc, cfg.Pattern, cfg.Load, cfg.TimeScale,
		cfg.Seed, cfg.Net, cfg.Scheduler, cfg.Issue, cfg.MsgsPerSecond,
		cfg.KeepRecords, cfg.KeepNodes, cfg.Faults, cfg.Retry)
	return h.Sum64()
}

// fingerprint returns cfgFingerprint(e.cfg), computed on first use:
// formatting the config costs a dozen allocations, and cfg never changes
// after NewEngine.
func (e *Engine) fingerprint() uint64 {
	if e.fp == 0 {
		e.fp = cfgFingerprint(e.cfg)
	}
	return e.fp
}

// le is the byte order of every snapshot field.
var le = binary.LittleEndian

// jobLen is the encoded size of a trace.Job: ID, Size, Arrival and
// Runtime, one word each.
const jobLen = 32

// putJob fills p with j's encoding.
func putJob(p *[jobLen]byte, j trace.Job) {
	le.PutUint64(p[0:], uint64(j.ID))
	le.PutUint64(p[8:], uint64(j.Size))
	le.PutUint64(p[16:], math.Float64bits(j.Arrival))
	le.PutUint64(p[24:], math.Float64bits(j.Runtime))
}

func writeJob(w *snap.Writer, j trace.Job) { putJob((*[jobLen]byte)(w.Extend(jobLen)), j) }

func (e *Engine) readJob(r *snap.Reader) (trace.Job, error) {
	j := trace.Job{ID: r.Int(), Size: r.Int(), Arrival: r.F64(), Runtime: r.F64()}
	if r.Err() != nil {
		return j, r.Err()
	}
	if j.Size <= 0 || j.Size > e.grid.Size() {
		return j, fmt.Errorf("sim: job %d size %d outside (0,%d]: %w", j.ID, j.Size, e.grid.Size(), snap.ErrCorrupt)
	}
	if !finite(j.Arrival) || !finite(j.Runtime) {
		return j, fmt.Errorf("sim: job %d has non-finite times: %w", j.ID, snap.ErrCorrupt)
	}
	return j, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// eventLen is the encoded size of a queued event: t, seq, kind and
// handle, then a job.
const eventLen = 32 + jobLen

// writeEvent writes ev as (t, seq, kind, handle, job). An arrival
// writes handle 0 and its job from the arrival slab; the others write
// their store handle and a zero job. Slot numbers are never written:
// restore parks arrivals in fresh slots.
func (e *Engine) writeEvent(w *snap.Writer, ev event) {
	var h int32
	var j trace.Job
	if ev.kind == kindArrival {
		j = e.slots[ev.h]
	} else {
		h = ev.h
	}
	p := (*[eventLen]byte)(w.Extend(eventLen))
	le.PutUint64(p[0:], math.Float64bits(ev.t))
	le.PutUint64(p[8:], uint64(ev.seq))
	le.PutUint64(p[16:], uint64(ev.kind))
	le.PutUint64(p[24:], uint64(h))
	putJob((*[jobLen]byte)(p[32:]), j)
}

// rowTailLen is the encoded size of the fixed fields that close a live
// job-store row, after its generator: sent, hops and the three times
// (start, lastArr, queued).
const rowTailLen = 5 * 8

// Snapshot serializes the engine's authoritative state — clock, streaming
// aggregates, the job store, the event queue, the pending queue, RNG
// states, fault and network state, and (under the Keep policy)
// the retained records — as one versioned, checksummed binary blob.
// Derived state (allocator occupancy structures, fault masks, the
// scheduler's incremental mirrors, the busy-processor count, each row's
// quota and estimated end) is not serialized; RestoreEngine derives it.
// The engine must be between events: Snapshot is safe from a checkpoint
// hook (SetCheckpoint), between Step calls, or after RunUntil/RunSource
// returns.
//
// Snapshot encodes with AppendBinary into the spare capacity out offers
// through an AvailableBuffer method, as bytes.Buffer and bufio.Writer
// do, and hands the container to out in one Write. Only when that room
// is smaller than the previous container does it allocate, sized at the
// previous payload plus an eighth, so a caller that reuses its buffer
// pays no allocation or copy for the payload, and the engine keeps no
// payload buffer between checkpoints. Every other part is encoded
// straight from its owner's arrays, so such a call allocates nothing.
//
// A run resumed from a snapshot replays the exact event sequence the
// uninterrupted run would have: every record, digest and aggregate is
// bit-identical.
func (e *Engine) Snapshot(out io.Writer) error {
	var b []byte
	if ab, ok := out.(interface{ AvailableBuffer() []byte }); ok {
		b = ab.AvailableBuffer()
	}
	if cap(b) < snap.Framing+e.snapLen {
		b = make([]byte, 0, snap.Framing+e.snapLen+e.snapLen/8)
	}
	b, err := e.AppendBinary(b)
	if err != nil {
		return err
	}
	_, err = out.Write(b)
	return err
}

// AppendBinary appends the container Snapshot writes to b and returns
// the extended slice, implementing encoding.BinaryAppender. Bytes of b
// are left as they are.
func (e *Engine) AppendBinary(b []byte) ([]byte, error) {
	w := &e.enc
	w.Reset(b)
	w.U64(e.fingerprint())

	// Clock, sequence and streaming aggregates.
	w.F64(e.now)
	w.I64(e.seq)
	w.Int(e.finished)
	w.F64(e.respSum)
	w.Int(e.totalComps)
	w.Int(e.contig)
	w.F64(e.makespan)
	w.F64(e.lastAccount)
	w.F64(e.busyArea)
	w.F64(e.queueArea)
	w.Int(e.retried)
	w.Int(e.givenUp)
	w.Int(e.submitted)
	w.F64(e.wastedArea)
	w.F64(e.downArea)
	w.Bool(e.blocked)

	// Event-core profiling counters, so CoreStats survives a resume.
	w.I64(e.core.Events)
	w.I64(e.core.Arrivals)
	w.I64(e.core.Steps)
	w.I64(e.core.Finishes)
	w.I64(e.core.FaultEvents)
	w.I64(e.core.SchedRounds)
	w.I64(e.core.SchedSkips)

	// The P² median estimator.
	e.respMedian.AppendState(w)

	// Job store: per-handle flags, live rows in full, and the pool free
	// list verbatim — recycle order decides future handle assignment,
	// which feeds event identity and scheduler tie-breaks.
	s := &e.store
	w.Int(len(s.rows))
	for h := range s.rows {
		r := &s.rows[h]
		w.Bool(r.inUse)
		w.Bool(r.dead)
		if !r.inUse || r.dead {
			continue
		}
		// A live row takes two windows: one for the job, its node count
		// and its nodes, and, after the generator, one for the row's
		// fixed tail.
		p := w.Extend(jobLen + 8 + 8*len(r.nodes))
		putJob((*[jobLen]byte)(p), r.job)
		le.PutUint64(p[jobLen:], uint64(len(r.nodes)))
		for i, id := range r.nodes {
			le.PutUint64(p[jobLen+8+8*i:], uint64(id))
		}
		r.gen.AppendState(w)
		t := (*[rowTailLen]byte)(w.Extend(rowTailLen))
		le.PutUint64(t[0:], uint64(r.sent))
		le.PutUint64(t[8:], uint64(r.hops))
		le.PutUint64(t[16:], math.Float64bits(r.start))
		le.PutUint64(t[24:], math.Float64bits(r.lastArr))
		le.PutUint64(t[32:], math.Float64bits(r.queued))
	}
	w.Int(len(s.free))
	for _, h := range s.free {
		w.Int(int(h))
	}

	// The engine RNG's state, after the rows: restoring a row builds its
	// generator with the run's pattern, and the mixed pattern draws to
	// build one.
	e.rng.AppendState(w)

	// The pending FCFS queue and the event queue. Events are written in
	// (t, seq) order, the order they pop, so the bytes do not depend on
	// how the queue lays them out: the FIFO is read as it stands and
	// merged with the heap, whose events come off a copy popped in
	// heapBuf. Each carries its assigned seq, so the reader may take
	// them in any order.
	w.Int(e.Pending())
	for _, j := range e.pendingJobs() {
		writeJob(w, j)
	}
	w.Int(e.events.len())
	e.heapBuf = append(e.heapBuf[:0], e.events.heap...)
	hp, fifo := e.heapBuf, e.events.fifo[e.events.fh:]
	for len(hp) > 0 || len(fifo) > 0 {
		if len(fifo) > 0 && (len(hp) == 0 || before(&fifo[0], &hp[0])) {
			e.writeEvent(w, fifo[0])
			fifo = fifo[1:]
		} else {
			e.writeEvent(w, hp.pop())
		}
	}
	w.Bool(e.hasHeld)
	if e.hasHeld {
		writeJob(w, e.held)
	}

	// Fault-injection state: availability flags, retry bookkeeping in
	// job-ID order, and the fault stream, whose next event the engine
	// reads from it. Presence is decided by the config (covered by the
	// fingerprint), so writer and reader always agree on whether this
	// block exists.
	if e.faults != nil {
		for n := range e.down {
			w.Bool(e.down[n])
			w.Bool(e.drained[n])
		}
		ids := e.killIDs[:0]
		for id := range e.killCount {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		e.killIDs = ids
		w.Int(len(ids))
		for _, id := range ids {
			w.Int(id)
			w.Int(e.killCount[id])
		}
		e.faults.AppendState(w)
	}

	// Network link state and aggregate stats.
	e.net.AppendState(w)

	// Allocator state no busy set determines (a NextFit cursor, an RNG).
	// The allocator's type, which the fingerprint fixes, decides whether
	// it has any.
	if c, ok := e.allocator.(snap.Codec); ok {
		c.AppendState(w)
	}

	// Retained records under the Keep policy.
	if e.cfg.KeepRecords == Keep {
		w.Int(len(e.records))
		for i := range e.records {
			rec := &e.records[i]
			w.Int(rec.ID)
			w.Int(rec.Size)
			w.I64(rec.Quota)
			w.F64(rec.Arrival)
			w.F64(rec.Start)
			w.F64(rec.Finish)
			w.F64(rec.Response)
			w.F64(rec.RunTime)
			w.F64(rec.Wait)
			w.F64(rec.AvgPairwise)
			w.F64(rec.AvgMsgDist)
			w.F64(rec.QueuedSec)
			w.Int(rec.Components)
			w.Bool(rec.Contiguous)
			w.Bool(rec.Nodes != nil)
			if rec.Nodes != nil {
				w.Int(len(rec.Nodes))
				for _, id := range rec.Nodes {
					w.Int(id)
				}
			}
		}
	}

	e.snapLen = w.Len()
	b = w.Finish()
	*w = snap.Writer{} // hold no reference to the caller's buffer
	return b, nil
}

// RestoreEngine reads a Snapshot blob and returns an engine that resumes
// the run exactly where the snapshot left it: the subsequent event
// sequence, records and aggregates are bit-identical to the run that
// never stopped. cfg must match the snapshotting run's semantic
// configuration (ErrConfigMismatch otherwise); AuditEvery, the one
// outcome-neutral field, may differ freely.
//
// Corrupt input is rejected with a typed error, never a panic:
// snap.ErrBadMagic, snap.ErrVersion or snap.ErrChecksum for a damaged
// container, snap.ErrCorrupt (wrapped) for a container whose payload
// decodes to impossible state. After the payload is installed, every
// derived index is rebuilt once and the invariant auditor runs once; a
// violation fails the restore with the audit's error, wrapped in
// snap.ErrCorrupt. Rebuilding again could not help: it would re-derive
// the same state from the same decoded facts.
func RestoreEngine(in io.Reader, cfg Config) (*Engine, error) {
	r, err := snap.NewReader(in)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if got, want := r.U64(), e.fingerprint(); r.Err() == nil && got != want {
		return nil, fmt.Errorf("sim: snapshot fingerprint %016x, config fingerprint %016x: %w",
			got, want, ErrConfigMismatch)
	}

	e.now = r.F64()
	e.seq = r.I64()
	e.finished = r.Int()
	e.respSum = r.F64()
	e.totalComps = r.Int()
	e.contig = r.Int()
	e.makespan = r.F64()
	e.lastAccount = r.F64()
	e.busyArea = r.F64()
	e.queueArea = r.F64()
	e.retried = r.Int()
	e.givenUp = r.Int()
	e.submitted = r.Int()
	e.wastedArea = r.F64()
	e.downArea = r.F64()
	blocked := r.Bool()
	if r.Err() == nil && (!finite(e.now) || e.now < 0 || e.seq < 0 || e.finished < 0 ||
		e.retried < 0 || e.givenUp < 0 || e.submitted < 0) {
		return nil, fmt.Errorf("sim: negative or non-finite engine counters: %w", snap.ErrCorrupt)
	}

	e.core.Events = r.I64()
	e.core.Arrivals = r.I64()
	e.core.Steps = r.I64()
	e.core.Finishes = r.I64()
	e.core.FaultEvents = r.I64()
	e.core.SchedRounds = r.I64()
	e.core.SchedSkips = r.I64()

	if err := e.respMedian.ReadState(r); err != nil {
		return nil, fmt.Errorf("sim: %v: %w", err, snap.ErrCorrupt)
	}

	// Job store. A live row's quota is derived from its job, as
	// startJob set it.
	s := &e.store
	nh := r.Count(1 << 31)
	for h := 0; h < nh && r.Err() == nil; h++ {
		s.rows = append(s.rows, jobRow{inUse: r.Bool(), dead: r.Bool()})
		row := &s.rows[h]
		if !row.inUse || row.dead {
			continue
		}
		s.live++
		j, err := e.readJob(r)
		if err != nil {
			return nil, err
		}
		nn := r.Count(e.grid.Size())
		if r.Err() == nil && nn != j.Size {
			return nil, fmt.Errorf("sim: handle %d holds %d nodes for a %d-processor job: %w",
				h, nn, j.Size, snap.ErrCorrupt)
		}
		row.job, row.nodes = j, make([]int, 0, nn)
		for i := 0; i < nn && r.Err() == nil; i++ {
			row.nodes = append(row.nodes, r.Int())
		}
		row.gen = e.pattern.Generator(j.Size, e.rng)
		if err := row.gen.ReadState(r); err != nil {
			return nil, fmt.Errorf("sim: handle %d: %v: %w", h, err, snap.ErrCorrupt)
		}
		row.quota = e.quotaOf(j)
		row.sent, row.hops = r.I64(), r.I64()
		row.start, row.lastArr, row.queued = r.F64(), r.F64(), r.F64()
		if r.Err() != nil {
			break
		}
		if row.sent < 0 || row.sent > row.quota {
			return nil, fmt.Errorf("sim: handle %d sent %d messages of a %d-message quota: %w",
				h, row.sent, row.quota, snap.ErrCorrupt)
		}
		if !(finite(row.start) && finite(row.lastArr) && finite(row.queued)) {
			return nil, fmt.Errorf("sim: handle %d has non-finite times: %w", h, snap.ErrCorrupt)
		}
	}
	nf := r.Count(nh)
	for i := 0; i < nf && r.Err() == nil; i++ {
		fh := r.Int()
		if r.Err() == nil && (fh < 0 || fh >= nh) {
			return nil, fmt.Errorf("sim: free-list handle %d outside [0,%d): %w", fh, nh, snap.ErrCorrupt)
		}
		s.free = append(s.free, int32(fh))
	}
	if err := e.rng.ReadState(r); err != nil {
		return nil, fmt.Errorf("sim: %v: %w", err, snap.ErrCorrupt)
	}

	// Pending queue and event queue. Events may come in any order —
	// builds before (t, seq) order wrote the heap array as it stood —
	// so each is queued as it is read: an arrival that sorts after the
	// FIFO's tail joins the FIFO, and every other event the heap.
	nq := r.Count(1 << 31)
	for i := 0; i < nq && r.Err() == nil; i++ {
		j, err := e.readJob(r)
		if err != nil {
			return nil, err
		}
		e.enqueue(j)
	}
	ne := r.Count(1 << 31)
	for i := 0; i < ne && r.Err() == nil; i++ {
		t, seq, kind, h := r.F64(), r.I64(), r.Int(), r.Int()
		var arr trace.Job
		if kind == kindArrival {
			j, err := e.readJob(r)
			if err != nil {
				return nil, err
			}
			arr = j
		} else {
			// Non-arrival events carry a zero job; skip its fields.
			if _, err := e.readJob(r); err != nil && r.Err() != nil {
				return nil, r.Err()
			}
			if r.Err() == nil && (h < 0 || h >= nh) {
				return nil, fmt.Errorf("sim: event handle %d outside [0,%d): %w", h, nh, snap.ErrCorrupt)
			}
		}
		if r.Err() != nil {
			break
		}
		if !finite(t) || t < e.now || seq < 0 || seq >= e.seq {
			return nil, fmt.Errorf("sim: event (t=%v seq=%d) inconsistent with clock %v seq %d: %w",
				t, seq, e.now, e.seq, snap.ErrCorrupt)
		}
		if kind < kindArrival || kind > kindFinish {
			return nil, fmt.Errorf("sim: unknown event kind %d: %w", kind, snap.ErrCorrupt)
		}
		ev := event{t: t, seq: seq, h: int32(h), kind: int32(kind)}
		if kind == kindArrival {
			ev.h = e.park(arr)
			e.events.pushArrival(ev)
		} else {
			e.events.push(ev)
		}
	}
	e.hasHeld = r.Bool()
	if e.hasHeld && r.Err() == nil {
		j, err := e.readJob(r)
		if err != nil {
			return nil, err
		}
		e.held = j
	}

	// Fault state.
	if e.faults != nil {
		for n := range e.down {
			e.down[n] = r.Bool()
			e.drained[n] = r.Bool()
		}
		nk := r.Count(1 << 31)
		for i := 0; i < nk && r.Err() == nil; i++ {
			id, kills := r.Int(), r.Int()
			if r.Err() == nil && kills <= 0 {
				return nil, fmt.Errorf("sim: job %d recorded %d kills: %w", id, kills, snap.ErrCorrupt)
			}
			e.killCount[id] = kills
		}
		if err := e.faults.ReadState(r); err != nil {
			return nil, fmt.Errorf("sim: %v: %w", err, snap.ErrCorrupt)
		}
	}

	// Network state.
	if err := e.net.ReadState(r); err != nil {
		return nil, fmt.Errorf("sim: %v: %w", err, snap.ErrCorrupt)
	}

	// Allocator state (re-occupying the live jobs' nodes below leaves
	// it alone).
	if c, ok := e.allocator.(snap.Codec); ok {
		if err := c.ReadState(r); err != nil {
			return nil, fmt.Errorf("sim: %v: %w", err, snap.ErrCorrupt)
		}
	}

	// Retained records.
	if e.cfg.KeepRecords == Keep {
		nr := r.Count(1 << 31)
		for i := 0; i < nr && r.Err() == nil; i++ {
			rec := JobRecord{
				ID: r.Int(), Size: r.Int(), Quota: r.I64(),
				Arrival: r.F64(), Start: r.F64(), Finish: r.F64(),
				Response: r.F64(), RunTime: r.F64(), Wait: r.F64(),
				AvgPairwise: r.F64(), AvgMsgDist: r.F64(), QueuedSec: r.F64(),
				Components: r.Int(), Contiguous: r.Bool(),
			}
			if r.Bool() {
				nn := r.Count(e.grid.Size())
				rec.Nodes = make([]int, 0, nn)
				for k := 0; k < nn && r.Err() == nil; k++ {
					rec.Nodes = append(rec.Nodes, r.Int())
				}
			}
			e.records = append(e.records, rec)
		}
	}

	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("sim: %d bytes of trailing payload: %w", r.Remaining(), snap.ErrCorrupt)
	}

	// Rebuild every derived index from the authoritative state, then
	// audit. rebuildDerived converts allocator panics on impossible (but
	// checksum-valid) state into errors.
	if err := e.rebuildDerived(); err != nil {
		return nil, fmt.Errorf("%v: %w", err, snap.ErrCorrupt)
	}
	e.blocked = blocked && e.canBlock
	if err := e.Audit(); err != nil {
		return nil, fmt.Errorf("sim: restored state failed the invariant audit: %v: %w", err, snap.ErrCorrupt)
	}
	return e, nil
}
