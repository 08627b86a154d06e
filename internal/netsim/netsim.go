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
	freeAt   []float64 // per directed link: earliest time it is idle
	busyTime []float64 // per directed link: accumulated service time
	stats    Stats
	clock    float64 // latest Send time, for the monotonicity check
	// segs and alt are persistent route scratch: the runs of link
	// indices the message takes, and under adaptive routing the
	// alternative order's runs.
	segs, alt [topo.MaxSegs]topo.Seg
}

// New returns a network over the grid g with the given configuration. It
// panics on non-positive flit counts or negative timings: network timing
// is static configuration.
func New(g *topo.Grid, cfg Config) *Network {
	if cfg.MessageFlits <= 0 || cfg.FlitCycle < 0 || cfg.HopLatency < 0 || cfg.LocalDelay < 0 {
		panic(fmt.Sprintf("netsim: invalid config %+v", cfg))
	}
	return &Network{
		m:        g,
		cfg:      cfg,
		freeAt:   make([]float64, g.NumLinks()),
		busyTime: make([]float64, g.NumLinks()),
	}
}

// Result describes one delivered message.
type Result struct {
	// Arrival is the absolute time the last flit reaches the destination.
	Arrival float64
	// Hops is the route length in links (0 for self-addressed messages).
	Hops int
	// Queued is the total time spent waiting for busy links.
	Queued float64
}

// Send injects a message from node src to node dst at time t and returns
// its delivery result. Send must be called with nondecreasing t; it
// panics otherwise, since out-of-order sends would corrupt link state
// silently.
//
// The route is never materialized: the grid's walker hands back straight
// runs of dense link indices, and Send updates link state along them.
func (n *Network) Send(src, dst int, t float64) Result {
	if t < n.clock {
		panic(fmt.Sprintf("netsim: Send at %g before clock %g", t, n.clock))
	}
	n.clock = t

	if src == dst {
		n.stats.Messages++
		n.stats.TotalDistSec += n.cfg.LocalDelay
		return Result{Arrival: t + n.cfg.LocalDelay}
	}

	service, hop := n.cfg.serviceTime(), n.cfg.HopLatency
	freeAt, busyTime := n.freeAt, n.busyTime
	cur := t
	queued := 0.0
	hops := 0
	for _, s := range n.pickRoute(src, dst, t) {
		for k, li := 0, s.First; k < s.N; k, li = k+1, li+s.Stride {
			depart := cur
			if f := freeAt[li]; f > depart {
				queued += f - depart
				depart = f
			}
			freeAt[li] = depart + service
			busyTime[li] += service
			// The header reaches the next router one hop latency after it
			// starts on this link; the body pipelines behind.
			cur = depart + hop
		}
		hops += s.N
	}
	// After the header arrives, the remaining flits stream in over one
	// link service time.
	arrival := cur + service

	n.stats.Messages++
	n.stats.TotalHops += int64(hops)
	n.stats.TotalDistSec += arrival - t
	n.stats.TotalQueueSec += queued
	return Result{Arrival: arrival, Hops: hops, Queued: queued}
}

// pickRoute returns the runs of links a message injected at time t will
// take. The returned slice aliases the network's route scratch and is
// only valid until the next Send.
func (n *Network) pickRoute(src, dst int, t float64) []topo.Seg {
	switch n.cfg.Routing {
	case RouteYX:
		return n.segs[:n.m.RouteSegs(&n.segs, src, dst, false)]
	case RouteAdaptive:
		route := n.segs[:n.m.RouteSegs(&n.segs, src, dst, true)]
		alt := n.alt[:n.m.RouteSegs(&n.alt, src, dst, false)]
		if n.routeWait(alt, t) < n.routeWait(route, t) {
			return alt
		}
		return route
	default:
		return n.segs[:n.m.RouteSegs(&n.segs, src, dst, true)]
	}
}

// routeWait estimates the queueing a message would see on a route if its
// header could teleport: the sum of positive (freeAt - t) over links. It
// is a heuristic for adaptive route selection, not an exact simulation.
func (n *Network) routeWait(route []topo.Seg, t float64) float64 {
	wait := 0.0
	for _, s := range route {
		for k, li := 0, s.First; k < s.N; k, li = k+1, li+s.Stride {
			if f := n.freeAt[li]; f > t {
				wait += f - t
			}
		}
	}
	return wait
}

// Stats returns the accumulated network statistics.
func (n *Network) Stats() Stats { return n.stats }

// State is the serializable dynamic state of a Network: per-link idle
// times and busy accumulators, the aggregate statistics, and the send
// clock (which must restore so the monotonicity check keeps holding).
type State struct {
	FreeAt   []float64
	BusyTime []float64
	Stats    Stats
	Clock    float64
}

// State captures the network for a snapshot.
func (n *Network) State() State {
	return State{
		FreeAt:   append([]float64(nil), n.freeAt...),
		BusyTime: append([]float64(nil), n.busyTime...),
		Stats:    n.stats,
		Clock:    n.clock,
	}
}

// SetState restores a state previously captured from a network over the
// same grid. It errors on a link-count mismatch.
func (n *Network) SetState(s State) error {
	if len(s.FreeAt) != len(n.freeAt) || len(s.BusyTime) != len(n.busyTime) {
		return fmt.Errorf("netsim: state has %d/%d links, network has %d",
			len(s.FreeAt), len(s.BusyTime), len(n.freeAt))
	}
	copy(n.freeAt, s.FreeAt)
	copy(n.busyTime, s.BusyTime)
	n.stats = s.Stats
	n.clock = s.Clock
	return nil
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
