package fault

import (
	"fmt"
	"math"
	"sort"

	"meshalloc/internal/snap"
	"meshalloc/internal/stats"
)

// Stream merges the per-node random failure/repair clocks and the
// scripted schedule into one totally-ordered event sequence. Each node
// owns an independent splitmix64 generator seeded stats.Mix64(seed,
// node) and alternates MTBF and MTTR draws lazily, so minting a stream
// for a million-node machine costs one small struct per node and no
// draws until events are consumed. The merge order is (T, scripted
// before random, node id) — a pure function of the Config, never of
// goroutine scheduling.
type Stream struct {
	cfg       Config
	mtbfScale float64
	mttrScale float64

	// clocks is a binary min-heap of per-node next events.
	clocks []clock
	// script is the sorted scripted schedule; scriptAt indexes the
	// next unconsumed entry.
	script   []Event
	scriptAt int
}

// clock is one node's pending random event.
type clock struct {
	t    float64
	node int
	down bool // next transition: true = failure, false = repair
	rng  stats.Splitmix64
}

// NewStream builds the event stream for an n-node machine. It returns
// an error if the config fails validation.
func NewStream(cfg Config, n int) (*Stream, error) {
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	s := &Stream{
		cfg:       cfg,
		mtbfScale: cfg.MTBF.scale(),
		mttrScale: cfg.MTTR.scale(),
	}
	if len(cfg.Script) > 0 {
		s.script = append([]Event(nil), cfg.Script...)
		sort.SliceStable(s.script, func(i, j int) bool {
			a, b := s.script[i], s.script[j]
			if a.T != b.T {
				return a.T < b.T
			}
			return a.Node < b.Node
		})
	}
	if cfg.MTBF.Enabled() {
		s.clocks = make([]clock, 0, n)
		for node := 0; node < n; node++ {
			c := clock{node: node, down: true, rng: *stats.NewSplitmix64(stats.Mix64(cfg.Seed, node))}
			c.t = cfg.MTBF.sample(s.mtbfScale, c.rng.Float64())
			s.clocks = append(s.clocks, c)
		}
		s.heapify()
	}
	return s, nil
}

// heapify orders clocks into a heap, sifting down from the last parent.
// A valid heap is left as it is.
func (s *Stream) heapify() {
	for i := len(s.clocks)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// clockLess orders heap entries by (t, node); node breaks ties so the
// pop order is deterministic even when two clocks collide exactly.
func (s *Stream) clockLess(i, j int) bool {
	a, b := &s.clocks[i], &s.clocks[j]
	if a.t != b.t {
		return a.t < b.t
	}
	return a.node < b.node
}

func (s *Stream) siftDown(i int) {
	n := len(s.clocks)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s.clockLess(l, m) {
			m = l
		}
		if r < n && s.clockLess(r, m) {
			m = r
		}
		if m == i {
			return
		}
		s.clocks[i], s.clocks[m] = s.clocks[m], s.clocks[i]
		i = m
	}
}

// Peek returns the next event without consuming it, or ok=false when
// the stream is exhausted (possible only for script-only streams or
// permanent failures that have all fired).
func (s *Stream) Peek() (Event, bool) {
	hasScript := s.scriptAt < len(s.script)
	hasClock := len(s.clocks) > 0
	if !hasScript && !hasClock {
		return Event{}, false
	}
	if hasScript && (!hasClock || s.script[s.scriptAt].T <= s.clocks[0].t) {
		// Scripted events win exact-time ties against random clocks:
		// maintenance windows are stated intent, failures are noise.
		return s.script[s.scriptAt], true
	}
	c := &s.clocks[0]
	kind := NodeUp
	if c.down {
		kind = NodeDown
	}
	return Event{T: c.t, Node: c.node, Kind: kind}, true
}

// Next consumes and returns the next event.
func (s *Stream) Next() (Event, bool) {
	ev, ok := s.Peek()
	if !ok {
		return Event{}, false
	}
	if s.scriptAt < len(s.script) && ev == s.script[s.scriptAt] {
		s.scriptAt++
		return ev, true
	}
	// Advance the popped node's clock to its next transition. A
	// disabled MTTR leaves the node down forever: drop the clock.
	c := &s.clocks[0]
	c.down = !c.down
	if !c.down && !s.cfg.MTTR.Enabled() {
		last := len(s.clocks) - 1
		s.clocks[0] = s.clocks[last]
		s.clocks = s.clocks[:last]
	} else {
		if c.down {
			c.t += s.cfg.MTBF.sample(s.mtbfScale, c.rng.Float64())
		} else {
			c.t += s.cfg.MTTR.sample(s.mttrScale, c.rng.Float64())
		}
	}
	if len(s.clocks) > 0 {
		s.siftDown(0)
	}
	return ev, true
}

// AppendState appends the stream's state to w: the scripted-schedule
// cursor, then the clocks in heap-array order, each clock's time, node,
// next transition and splitmix64 state. The script itself is a pure
// function of the Config and is rebuilt by NewStream.
func (s *Stream) AppendState(w *snap.Writer) {
	w.Int(s.scriptAt)
	w.Int(len(s.clocks))
	for i := range s.clocks {
		c := &s.clocks[i]
		w.F64(c.t)
		w.Int(c.node)
		w.Bool(c.down)
		w.U64(c.rng.State())
	}
}

// ReadState reads a state AppendState wrote from a stream built with the
// same Config. It rejects a cursor past the script, more clocks than
// the stream minted, and a clock with a non-finite time or a node
// outside the machine. The clocks are heapified as read, so their order
// in the state does not matter: the stream pops them in (t, node) order
// whatever it is.
func (s *Stream) ReadState(r *snap.Reader) error {
	at := r.Int()
	if r.Err() == nil && (at < 0 || at > len(s.script)) {
		return fmt.Errorf("fault: script cursor %d outside [0, %d]", at, len(s.script))
	}
	// NewStream minted one clock per node, or none, and clocks only
	// ever leave the heap (permanent failures drop them), so its
	// capacity bounds both the clock count and the node ids.
	n := cap(s.clocks)
	s.clocks = s.clocks[:0]
	for k := r.Count(n); k > 0 && r.Err() == nil; k-- {
		c := clock{t: r.F64(), node: r.Int(), down: r.Bool()}
		c.rng.SetState(r.U64())
		if r.Err() == nil && (math.IsNaN(c.t) || math.IsInf(c.t, 0) || c.node < 0 || c.node >= n) {
			return fmt.Errorf("fault: clock of node %d at %v invalid", c.node, c.t)
		}
		s.clocks = append(s.clocks, c)
	}
	s.heapify()
	s.scriptAt = at
	return r.Err()
}
