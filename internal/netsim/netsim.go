// Package netsim is the interconnect model of the microsimulator: an
// event-driven, cycle-accurate link-pipeline approximation of the
// flit-level wormhole simulation performed by ProcSimity. It is
// dimension-generic: the same link pipeline serves the paper's 2-D
// meshes and the native 3-D machines of the ext-cube3d experiment,
// parameterized only by a topo.Grid.
//
// Every directed grid link is a FIFO resource that serializes one flit per
// flit cycle. A message of F flits sent along its dimension-ordered
// route occupies each link on the path for F flit cycles; the header
// advances one hop per hop latency and the body pipelines behind it. When
// a link is still busy with earlier traffic the message queues, which is
// where interjob contention — the phenomenon the allocation algorithms
// fight over — appears. Relative to true wormhole switching the model
// buffers blocked messages at links (virtual cut-through) instead of
// stalling them in place across multiple links; DESIGN.md discusses why
// this preserves the contention structure the paper measures.
//
// Callers must issue Send calls in nondecreasing time order, which the
// simulator's event loop guarantees.
package netsim

import (
	"fmt"

	"meshalloc/internal/comm"
	"meshalloc/internal/snap"
	"meshalloc/internal/topo"
)

// Routing selects the deterministic routing function.
type Routing int

const (
	// RouteXY is ascending dimension-ordered routing — x then y (then
	// z), the paper's (and the Paragon's) algorithm. Default.
	RouteXY Routing = iota
	// RouteYX routes axes in descending order (y then x in 2-D), for
	// routing-sensitivity ablations.
	RouteYX
	// RouteAdaptive picks whichever of the two dimension-ordered routes
	// currently has the lower total queueing delay — a minimal adaptive
	// router in the spirit of ProcSimity's selectable routing.
	RouteAdaptive
)

// String implements fmt.Stringer.
func (r Routing) String() string {
	switch r {
	case RouteYX:
		return "yx"
	case RouteAdaptive:
		return "adaptive"
	default:
		return "xy"
	}
}

// RoutingByName parses a routing name ("xy", "yx", "adaptive").
func RoutingByName(name string) (Routing, error) {
	switch name {
	case "", "xy":
		return RouteXY, nil
	case "yx":
		return RouteYX, nil
	case "adaptive":
		return RouteAdaptive, nil
	default:
		return 0, fmt.Errorf("netsim: unknown routing %q", name)
	}
}

// Config sets the network timing parameters. Times are in simulated
// seconds so they compose directly with trace timestamps.
type Config struct {
	// MessageFlits is the number of flits per message.
	MessageFlits int
	// FlitCycle is the time to move one flit across one link.
	FlitCycle float64
	// HopLatency is the per-hop header/routing latency.
	HopLatency float64
	// LocalDelay is the delivery time of a self-addressed message, which
	// never enters the network.
	LocalDelay float64
	// Routing selects the route function (default RouteXY, as in the
	// paper: "messages use x-y routing").
	Routing Routing
}

// DefaultConfig returns the timing used by the paper-reproduction
// experiments: 64-flit messages with a per-link service time of 3.84 s.
// The paper never states ProcSimity's flit time, but its Figure 9 shows
// ~40,000-message jobs running 20,000-180,000 seconds — second-scale
// per-message times. This default is calibrated so that a mean trace job
// running the all-to-all pattern communicates for roughly its traced
// runtime, which reproduces the machine occupancy (and hence the FCFS
// queueing regime) the paper's response-time figures show.
func DefaultConfig() Config {
	return Config{
		MessageFlits: 64,
		FlitCycle:    0.06,
		HopLatency:   0.05,
		LocalDelay:   0.01,
	}
}

// serviceTime returns how long a message occupies one link.
func (c Config) serviceTime() float64 {
	return float64(c.MessageFlits) * c.FlitCycle
}

// Stats aggregates network activity over a run.
type Stats struct {
	// Messages is the number of messages delivered.
	Messages int64
	// TotalHops is the sum of route lengths.
	TotalHops int64
	// TotalDistSec is the total in-network latency (arrival minus send).
	TotalDistSec float64
	// TotalQueueSec is the total time messages spent waiting for busy
	// links, the direct measure of contention.
	TotalQueueSec float64
}

// AvgHops returns the mean hops per message — the paper's "average
// message distance" metric of Figure 10.
func (s Stats) AvgHops() float64 {
	if s.Messages == 0 {
		return 0
	}
	return float64(s.TotalHops) / float64(s.Messages)
}

// AvgLatency returns the mean per-message delivery latency.
func (s Stats) AvgLatency() float64 {
	if s.Messages == 0 {
		return 0
	}
	return s.TotalDistSec / float64(s.Messages)
}

// Network is the link-state simulator for one grid machine.
type Network struct {
	m        *topo.Grid
	cfg      Config
	service  float64   // how long a message occupies one link
	freeAt   []float64 // per directed link: earliest time it is idle
	busyTime []float64 // per directed link: accumulated service time
	stats    Stats
	clock    float64 // latest Send time, for the monotonicity check
	// The route walker's view of the grid: its coordinate table, axis
	// count, link directions per node, whether axes wrap, and each axis.
	coords  [][topo.MaxDims]uint16
	nd, nd2 int
	torus   bool
	axes    [topo.MaxDims]axis
}

// axis is one grid axis as the route walker sees it.
type axis struct {
	ext  int // extent
	node int // node-id stride
	link int // link-index step of one hop in the positive direction
}

// New returns a network over the grid g with the given configuration. It
// panics on non-positive flit counts or negative timings: network timing
// is static configuration.
func New(g *topo.Grid, cfg Config) *Network {
	if cfg.MessageFlits <= 0 || cfg.FlitCycle < 0 || cfg.HopLatency < 0 || cfg.LocalDelay < 0 {
		panic(fmt.Sprintf("netsim: invalid config %+v", cfg))
	}
	n := &Network{
		m:        g,
		cfg:      cfg,
		service:  cfg.serviceTime(),
		freeAt:   make([]float64, g.NumLinks()),
		busyTime: make([]float64, g.NumLinks()),
		coords:   g.Coords(),
		nd:       g.ND(),
		nd2:      g.NumDirs(),
		torus:    g.Torus(),
	}
	for a, stride := 0, 1; a < n.nd; a++ {
		n.axes[a] = axis{ext: g.Dim(a), node: stride, link: stride * n.nd2}
		stride *= g.Dim(a)
	}
	return n
}

// Sums are a sender's running totals over the messages it sends.
type Sums struct {
	// Hops is the number of links traversed.
	Hops int64
	// Queued is the time spent waiting for busy links.
	Queued float64
}

// Send injects msgs, a burst of messages between the ranks of one job
// whose processors are nodes, all at time t, in order: message m goes
// from nodes[m.Src] to nodes[m.Dst]. It adds each message's hops and
// queueing to sums, message by message, so the running float sums take
// the same roundings as one call per message would. It returns the
// latest arrival of the burst's last flits, or t for an empty burst.
// Send must be called with nondecreasing t; it panics otherwise, since
// out-of-order sends would corrupt link state silently.
//
// Routes are never materialized: one dimension-ordered walker updates
// link state along them as it goes.
func (n *Network) Send(msgs []comm.Msg, nodes []int, t float64, sums *Sums) float64 {
	if t < n.clock {
		panic(fmt.Sprintf("netsim: Send at %g before clock %g", t, n.clock))
	}
	n.clock = t

	service, local := n.service, n.cfg.LocalDelay
	st := n.stats
	hops, queued := sums.Hops, sums.Queued
	last := t
	for _, m := range msgs {
		src, dst := nodes[m.Src], nodes[m.Dst]
		st.Messages++
		if src == dst {
			st.TotalDistSec += local
			if a := t + local; a > last {
				last = a
			}
			continue
		}
		asc := n.cfg.Routing != RouteYX
		if n.cfg.Routing == RouteAdaptive {
			// Take y-x only when it would wait strictly less.
			_, xy, _ := n.walk(src, dst, true, t, false)
			_, yx, _ := n.walk(src, dst, false, t, false)
			asc = !(yx < xy)
		}
		cur, q, h := n.walk(src, dst, asc, t, true)
		// After the header arrives, the remaining flits stream in over
		// one link service time.
		arrival := cur + service
		st.TotalHops += int64(h)
		st.TotalDistSec += arrival - t
		st.TotalQueueSec += q
		hops += int64(h)
		queued += q
		if arrival > last {
			last = arrival
		}
	}
	n.stats = st
	sums.Hops, sums.Queued = hops, queued
	return last
}

// walk follows the dimension-ordered route from src to dst (src != dst),
// resolving axes in ascending order (x-y) when asc, else descending
// (y-x). On a torus each axis takes the shorter way around (positive on
// ties). Each axis's direction, link step and wrap point are resolved
// once, so the per-hop loops test nothing but link state.
//
// With send set, the message occupies each link in turn from time t:
// it queues while the link is busy, holds it for one service time, and
// its header reaches the next router one hop latency after starting on
// the link, the body pipelining behind. walk then returns the time the
// header reaches dst, the time spent queueing, and the hop count.
// Without send, nothing changes and the second result is the wait the
// route would see if its header could teleport, the sum of positive
// (freeAt - t) over its links: the heuristic adaptive routing compares.
func (n *Network) walk(src, dst int, asc bool, t float64, send bool) (cur, wait float64, hops int) {
	cs, cd := &n.coords[src], &n.coords[dst]
	freeAt, busyTime := n.freeAt, n.busyTime
	service, hop := n.service, n.cfg.HopLatency
	cur = t
	id := src
	for k := 0; k < n.nd; k++ {
		a := k
		if !asc {
			a = n.nd - 1 - k
		}
		from, to := int(cs[a]), int(cd[a])
		if from == to {
			continue
		}
		// run hops go from link li at step; on a torus axis that wraps,
		// rest more follow once the index jumps back by ext steps.
		ax := n.axes[a]
		li, run, rest, step := id*n.nd2+2*a, to-from, 0, ax.link
		id += run * ax.node
		if n.torus {
			if run < 0 {
				run += ax.ext
			}
			if run > ax.ext-run {
				run, step, li = ax.ext-run, -step, li+1
				if run > from+1 {
					run, rest = from+1, run-from-1
				}
			} else if run > ax.ext-from {
				run, rest = ax.ext-from, run-ax.ext+from
			}
		} else {
			// Going down a mesh axis: the odd direction, the negated
			// step and the absolute run, without a branch to mispredict.
			neg := run >> 63
			run, step, li = run^neg-neg, step^neg-neg, li-neg
		}
		hops += run + rest
		for {
			if send {
				for ; run > 0; run-- {
					depart := cur
					if f := freeAt[li]; f > depart {
						wait += f - depart
						depart = f
					}
					freeAt[li] = depart + service
					busyTime[li] += service
					cur = depart + hop
					li += step
				}
			} else {
				for ; run > 0; run-- {
					if f := freeAt[li]; f > t {
						wait += f - t
					}
					li += step
				}
			}
			if rest == 0 {
				break
			}
			li -= ax.ext * step
			run, rest = rest, 0
		}
	}
	return cur, wait, hops
}

// Stats returns the accumulated network statistics.
func (n *Network) Stats() Stats { return n.stats }

// AppendState appends the network's dynamic state to w: each link's
// idle time and busy accumulator, the aggregate statistics, and the send
// clock (which must restore so the monotonicity check keeps holding).
func (n *Network) AppendState(w *snap.Writer) {
	for _, a := range [][]float64{n.freeAt, n.busyTime} {
		w.Int(len(a))
		for _, v := range a {
			w.F64(v)
		}
	}
	w.I64(n.stats.Messages)
	w.I64(n.stats.TotalHops)
	w.F64(n.stats.TotalDistSec)
	w.F64(n.stats.TotalQueueSec)
	w.F64(n.clock)
}

// ReadState reads a state AppendState wrote from a network over the
// same grid. It rejects a link count that differs from the network's.
func (n *Network) ReadState(r *snap.Reader) error {
	for _, a := range [][]float64{n.freeAt, n.busyTime} {
		if k := r.Count(1 << 31); r.Err() == nil && k != len(a) {
			return fmt.Errorf("netsim: state has %d links, network has %d", k, len(a))
		}
		for i := range a {
			a[i] = r.F64()
		}
	}
	n.stats = Stats{Messages: r.I64(), TotalHops: r.I64(), TotalDistSec: r.F64(), TotalQueueSec: r.F64()}
	n.clock = r.F64()
	return r.Err()
}

// LinkUtilization returns each directed link's busy fraction over the
// elapsed simulated time (the latest Send time). Before any traffic it
// returns all zeros. A heavily backlogged link can report slightly more
// than 1 because its queued service extends beyond the last send time.
// Index with the grid's LinkIndex.
func (n *Network) LinkUtilization() []float64 {
	util := make([]float64, len(n.busyTime))
	if n.clock <= 0 {
		return util
	}
	for i, b := range n.busyTime {
		util[i] = b / n.clock
	}
	return util
}

// NodeUtilization aggregates link utilization per node: the mean busy
// fraction of each node's outgoing links, a heatmap of where contention
// concentrates.
func (n *Network) NodeUtilization() []float64 {
	util := n.LinkUtilization()
	out := make([]float64, n.m.Size())
	for id := 0; id < n.m.Size(); id++ {
		count := 0
		total := 0.0
		for d := topo.Dir(0); int(d) < n.m.NumDirs(); d++ {
			if _, ok := n.m.Neighbor(id, d); !ok {
				continue
			}
			total += util[n.m.LinkIndex(topo.Link{From: id, Dir: d})]
			count++
		}
		if count > 0 {
			out[id] = total / float64(count)
		}
	}
	return out
}
