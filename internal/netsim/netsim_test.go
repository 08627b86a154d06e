package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"meshalloc/internal/comm"
	"meshalloc/internal/topo"
)

func testConfig() Config {
	return Config{MessageFlits: 10, FlitCycle: 0.01, HopLatency: 0.005, LocalDelay: 0.001}
}

// result describes one delivered message.
type result struct {
	Arrival float64 // when its last flit reaches the destination
	Hops    int     // route length in links (0 for self-addressed)
	Queued  float64 // time spent waiting for busy links
}

// send1 sends one message from node src to node dst at time t, as a
// burst of one, and returns what Send reports for it.
func send1(n *Network, src, dst int, t float64) result {
	var sums Sums
	arr := n.Send([]comm.Msg{{Src: 0, Dst: 1}}, []int{src, dst}, t, &sums)
	return result{Arrival: arr, Hops: int(sums.Hops), Queued: sums.Queued}
}

// uncontendedLatency is the delivery latency of a message over hops
// links on an idle network: the baseline the queueing delay adds to.
func uncontendedLatency(cfg Config, hops int) float64 {
	if hops == 0 {
		return cfg.LocalDelay
	}
	return float64(hops)*cfg.HopLatency + cfg.serviceTime()
}

func TestNewRejectsBadConfig(t *testing.T) {
	m := topo.New([]int{4, 4})
	for _, cfg := range []Config{
		{MessageFlits: 0, FlitCycle: 0.01},
		{MessageFlits: 4, FlitCycle: -1},
		{MessageFlits: 4, FlitCycle: 0.01, HopLatency: -0.1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) should panic", cfg)
				}
			}()
			New(m, cfg)
		}()
	}
}

func TestUncontendedLatency(t *testing.T) {
	m := topo.New([]int{8, 8})
	n := New(m, testConfig())
	// 3 hops: 3*0.005 + 10*0.01 = 0.115.
	r := send1(n, m.ID(topo.XY(0, 0)), m.ID(topo.XY(3, 0)), 0)
	if r.Hops != 3 {
		t.Fatalf("hops = %d, want 3", r.Hops)
	}
	want := 0.115
	if math.Abs(r.Arrival-want) > 1e-12 {
		t.Fatalf("arrival = %g, want %g", r.Arrival, want)
	}
	if r.Queued != 0 {
		t.Fatalf("queued = %g on idle network", r.Queued)
	}
	if got := uncontendedLatency(testConfig(), 3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("uncontended latency over 3 hops = %g, want %g", got, want)
	}
}

func TestSelfMessageUsesLocalDelay(t *testing.T) {
	m := topo.New([]int{4, 4})
	n := New(m, testConfig())
	r := send1(n, 5, 5, 2.0)
	if r.Hops != 0 || r.Arrival != 2.001 {
		t.Fatalf("self message result = %+v", r)
	}
}

func TestContentionSerializesSharedLink(t *testing.T) {
	m := topo.New([]int{8, 1})
	n := New(m, testConfig())
	// Two messages crossing the same link 0->1 at the same time: the
	// second queues for one service time (0.1).
	r1 := send1(n, 0, 2, 0)
	r2 := send1(n, 0, 2, 0)
	if r1.Queued != 0 {
		t.Fatalf("first message queued %g", r1.Queued)
	}
	if math.Abs(r2.Queued-0.1) > 1e-12 {
		t.Fatalf("second message queued %g, want 0.1", r2.Queued)
	}
	if r2.Arrival <= r1.Arrival {
		t.Fatal("second message should arrive after the first")
	}
}

func TestOppositeDirectionsDoNotContend(t *testing.T) {
	m := topo.New([]int{8, 1})
	n := New(m, testConfig())
	r1 := send1(n, 0, 3, 0)
	r2 := send1(n, 3, 0, 0) // full duplex: reverse links are distinct
	if r1.Queued != 0 || r2.Queued != 0 {
		t.Fatalf("duplex messages queued %g and %g", r1.Queued, r2.Queued)
	}
}

func TestDisjointPathsDoNotContend(t *testing.T) {
	m := topo.New([]int{8, 8})
	n := New(m, testConfig())
	r1 := send1(n, m.ID(topo.XY(0, 0)), m.ID(topo.XY(3, 0)), 0)
	r2 := send1(n, m.ID(topo.XY(0, 4)), m.ID(topo.XY(3, 4)), 0)
	if r1.Queued != 0 || r2.Queued != 0 {
		t.Fatal("disjoint rows should not contend")
	}
}

func TestXYRoutingContention(t *testing.T) {
	// Under x-y routing, a message (0,0)->(2,2) uses link (2,0)->(2,1);
	// a message (2,0)->(2,2) uses the same link. They contend even
	// though their sources differ.
	m := topo.New([]int{4, 4})
	n := New(m, testConfig())
	send1(n, m.ID(topo.XY(0, 0)), m.ID(topo.XY(2, 2)), 0)
	r2 := send1(n, m.ID(topo.XY(2, 0)), m.ID(topo.XY(2, 2)), 0)
	if r2.Queued <= 0 {
		t.Fatal("column-sharing messages should contend under x-y routing")
	}
}

func TestSendPanicsOnTimeTravel(t *testing.T) {
	m := topo.New([]int{4, 4})
	n := New(m, testConfig())
	send1(n, 0, 1, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Send should panic")
		}
	}()
	send1(n, 0, 1, 4)
}

func TestStatsAccumulate(t *testing.T) {
	m := topo.New([]int{8, 8})
	n := New(m, testConfig())
	send1(n, 0, 1, 0)
	send1(n, 0, 2, 0)
	send1(n, 3, 3, 1)
	s := n.Stats()
	if s.Messages != 3 {
		t.Fatalf("messages = %d", s.Messages)
	}
	if s.TotalHops != 3 {
		t.Fatalf("total hops = %d, want 3", s.TotalHops)
	}
	if got := s.AvgHops(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("avg hops = %g, want 1", got)
	}
	if s.AvgLatency() <= 0 {
		t.Fatal("avg latency should be positive")
	}
}

// TestReset: link state and statistics live in the Network, not the
// Grid, so a fresh network over a grid that already carried traffic
// starts idle.
func TestReset(t *testing.T) {
	m := topo.New([]int{4, 4})
	send1(New(m, testConfig()), 0, 5, 10)
	n := New(m, testConfig())
	if n.Stats().Messages != 0 {
		t.Fatal("stats shared through the grid")
	}
	r := send1(n, 0, 5, 0) // the clock starts at zero too
	if r.Queued != 0 {
		t.Fatal("link state shared through the grid")
	}
}

func TestEmptyStatsAverages(t *testing.T) {
	var s Stats
	if s.AvgHops() != 0 || s.AvgLatency() != 0 {
		t.Fatal("empty stats should average to 0")
	}
}

// TestArrivalMonotoneInLoad checks the queueing property the whole
// simulation rests on: adding background traffic never speeds up a
// message.
func TestArrivalMonotoneInLoad(t *testing.T) {
	m := topo.New([]int{8, 8})
	f := func(srcRaw, dstRaw uint8, bg []uint16) bool {
		src := int(srcRaw) % m.Size()
		dst := int(dstRaw) % m.Size()

		quiet := New(m, testConfig())
		probeQuiet := send1(quiet, src, dst, 1.0)

		busy := New(m, testConfig())
		for _, b := range bg {
			s := int(b>>8) % m.Size()
			d := int(b&0xff) % m.Size()
			send1(busy, s, d, 0.5)
		}
		probeBusy := send1(busy, src, dst, 1.0)

		return probeBusy.Arrival >= probeQuiet.Arrival-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCloserDestinationsArriveSooner checks, on an idle network, the
// locality property allocation exploits: fewer hops means earlier
// delivery.
func TestCloserDestinationsArriveSooner(t *testing.T) {
	m := topo.New([]int{16, 16})
	n := New(m, testConfig())
	prev := -1.0
	for d := 1; d < 16; d++ {
		nn := New(m, testConfig())
		r := send1(nn, 0, d, 0) // along the bottom row: d hops
		if r.Hops != d {
			t.Fatalf("hops to column %d = %d", d, r.Hops)
		}
		if r.Arrival <= prev {
			t.Fatalf("arrival not increasing with distance at %d hops", d)
		}
		prev = r.Arrival
	}
	_ = n
}

// TestQueueingConservation checks that the aggregate queueing statistic
// equals the sum of per-message queueing over an arbitrary workload.
func TestQueueingConservation(t *testing.T) {
	m := topo.New([]int{6, 6})
	n := New(m, testConfig())
	total := 0.0
	hops := int64(0)
	for i := 0; i < 500; i++ {
		src := (i * 7) % m.Size()
		dst := (i*13 + 5) % m.Size()
		r := send1(n, src, dst, float64(i)*0.01)
		total += r.Queued
		hops += int64(r.Hops)
	}
	s := n.Stats()
	if math.Abs(s.TotalQueueSec-total) > 1e-9 {
		t.Fatalf("TotalQueueSec %g != sum of per-message queueing %g", s.TotalQueueSec, total)
	}
	if s.TotalHops != hops {
		t.Fatalf("TotalHops %d != %d", s.TotalHops, hops)
	}
	if s.Messages != 500 {
		t.Fatalf("Messages = %d", s.Messages)
	}
}

// TestLatencyDecomposition checks that per-message latency equals the
// uncontended baseline plus the queueing delay.
func TestLatencyDecomposition(t *testing.T) {
	m := topo.New([]int{8, 8})
	n := New(m, testConfig())
	for i := 0; i < 200; i++ {
		src := (i * 11) % m.Size()
		dst := (i*17 + 3) % m.Size()
		if src == dst {
			continue
		}
		t0 := float64(i) * 0.02
		r := send1(n, src, dst, t0)
		want := uncontendedLatency(testConfig(), r.Hops) + r.Queued
		if math.Abs((r.Arrival-t0)-want) > 1e-9 {
			t.Fatalf("message %d: latency %g != baseline+queued %g", i, r.Arrival-t0, want)
		}
	}
}

func TestRoutingByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Routing
	}{{"", RouteXY}, {"xy", RouteXY}, {"yx", RouteYX}, {"adaptive", RouteAdaptive}} {
		got, err := RoutingByName(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("RoutingByName(%q) = %v, %v", tc.name, got, err)
		}
	}
	if _, err := RoutingByName("west-first"); err == nil {
		t.Error("unknown routing should fail")
	}
	if RouteXY.String() != "xy" || RouteYX.String() != "yx" || RouteAdaptive.String() != "adaptive" {
		t.Error("Routing.String mismatch")
	}
}

func TestYXRoutingUsesColumnFirst(t *testing.T) {
	m := topo.New([]int{4, 4})
	cfg := testConfig()
	cfg.Routing = RouteYX
	n := New(m, cfg)
	// Under y-x routing, (0,0)->(2,2) and (0,2)->(2,2) share the row-2
	// links, unlike under x-y routing.
	send1(n, m.ID(topo.XY(0, 0)), m.ID(topo.XY(2, 2)), 0)
	r2 := send1(n, m.ID(topo.XY(0, 2)), m.ID(topo.XY(2, 2)), 0)
	if r2.Queued <= 0 {
		t.Fatal("row-sharing messages should contend under y-x routing")
	}
}

func TestAdaptiveRoutingAvoidsCongestion(t *testing.T) {
	m := topo.New([]int{4, 4})
	cfg := testConfig()
	cfg.Routing = RouteAdaptive
	n := New(m, cfg)
	src := m.ID(topo.XY(0, 0))
	dst := m.ID(topo.XY(2, 2))
	// Congest the x-y route's first link (0,0)->(1,0) with row traffic.
	for i := 0; i < 5; i++ {
		send1(n, src, m.ID(topo.XY(3, 0)), 0)
	}
	r := send1(n, src, dst, 0)
	// The adaptive router should take the y-first route and dodge the
	// queue entirely.
	if r.Queued != 0 {
		t.Fatalf("adaptive route queued %g, want 0", r.Queued)
	}

	// A plain x-y network must queue in the same situation.
	nxy := New(m, testConfig())
	for i := 0; i < 5; i++ {
		send1(nxy, src, m.ID(topo.XY(3, 0)), 0)
	}
	if r := send1(nxy, src, dst, 0); r.Queued <= 0 {
		t.Fatal("x-y control should have queued")
	}
}

func TestLinkUtilization(t *testing.T) {
	m := topo.New([]int{8, 1})
	n := New(m, testConfig())
	if u := n.LinkUtilization(); len(u) != m.NumLinks() {
		t.Fatalf("utilization length %d", len(u))
	}
	// Before traffic: zeros.
	for _, u := range n.LinkUtilization() {
		if u != 0 {
			t.Fatal("idle network should have zero utilization")
		}
	}
	// One message 0->1 at t=1: link (0,+x) busy 0.1 over clock 1.
	// Dir 0 is +x.
	send1(n, 0, 1, 1.0)
	util := n.LinkUtilization()
	li := m.LinkIndex(topo.Link{From: 0, Dir: topo.Dir(0)})
	if math.Abs(util[li]-0.1) > 1e-12 {
		t.Fatalf("link utilization %g, want 0.1", util[li])
	}
	// Unused links remain zero.
	other := m.LinkIndex(topo.Link{From: 3, Dir: topo.Dir(0)})
	if util[other] != 0 {
		t.Fatal("unused link shows utilization")
	}
}

func TestNodeUtilizationAggregates(t *testing.T) {
	m := topo.New([]int{4, 4})
	n := New(m, testConfig())
	send1(n, 0, 3, 1.0) // bottom row eastward
	nu := n.NodeUtilization()
	if len(nu) != 16 {
		t.Fatalf("node utilization length %d", len(nu))
	}
	if nu[0] <= 0 || nu[1] <= 0 || nu[2] <= 0 {
		t.Fatal("sending nodes should show utilization")
	}
	if nu[15] != 0 {
		t.Fatal("far corner should be idle")
	}
}

// TestUtilizationResets: a fresh network over a grid that already
// carried traffic reports zero utilization before its own first Send.
func TestUtilizationResets(t *testing.T) {
	m := topo.New([]int{4, 4})
	send1(New(m, testConfig()), 0, 3, 1.0)
	n := New(m, testConfig())
	for _, u := range n.LinkUtilization() {
		if u != 0 {
			t.Fatal("utilization shared through the grid")
		}
	}
}

func TestDefaultConfigSane(t *testing.T) {
	// The default is calibrated to the paper's second-scale per-message
	// times (Figure 9: ~0.5-4.5 s per message): one link service time
	// must land in the low single-digit seconds.
	cfg := DefaultConfig()
	if cfg.serviceTime() < 0.5 || cfg.serviceTime() > 10 {
		t.Fatalf("default service time %g s out of the calibrated range", cfg.serviceTime())
	}
	if cfg.HopLatency <= 0 || cfg.HopLatency >= cfg.serviceTime() {
		t.Fatalf("hop latency %g should be positive and below service time", cfg.HopLatency)
	}
}

// refNetwork is the oracle Send is checked against: one message at a
// time, over a route built hop by hop with Grid.Neighbor, so it shares
// no code with the walker under test; link state is indexed with
// LinkIndex, one link at a time.
type refNetwork struct {
	m                *topo.Grid
	cfg              Config
	freeAt, busyTime []float64
	stats            Stats
	clock            float64
	routeBuf, altBuf []topo.Link
}

func newRefNetwork(g *topo.Grid, cfg Config) *refNetwork {
	return &refNetwork{m: g, cfg: cfg, freeAt: make([]float64, g.NumLinks()), busyTime: make([]float64, g.NumLinks())}
}

// refRoute appends the dimension-ordered route from src to dst to links:
// axes ascending when asc, else descending, each walked hop by hop with
// Neighbor toward dst's coordinate, the shorter way around on a torus
// (positive on ties).
func refRoute(g *topo.Grid, links []topo.Link, src, dst int, asc bool) []topo.Link {
	want := g.Coord(dst)
	cur := src
	for k := 0; k < g.ND(); k++ {
		a := k
		if !asc {
			a = g.ND() - 1 - k
		}
		for c := g.Coord(cur)[a]; c != want[a]; c = g.Coord(cur)[a] {
			dir := topo.Dir(2 * a)
			if ext := g.Dim(a); g.Torus() {
				if fwd := (want[a] - c + ext) % ext; fwd > ext-fwd {
					dir++
				}
			} else if want[a] < c {
				dir++
			}
			links = append(links, topo.Link{From: cur, Dir: dir})
			cur, _ = g.Neighbor(cur, dir)
		}
	}
	return links
}

func (n *refNetwork) Send(src, dst int, t float64) result {
	n.clock = t
	if src == dst {
		n.stats.Messages++
		n.stats.TotalDistSec += n.cfg.LocalDelay
		return result{Arrival: t + n.cfg.LocalDelay}
	}
	service := n.cfg.serviceTime()
	route := n.pickRoute(src, dst, t)
	cur := t
	queued := 0.0
	for _, l := range route {
		li := n.m.LinkIndex(l)
		depart := cur
		if n.freeAt[li] > depart {
			queued += n.freeAt[li] - depart
			depart = n.freeAt[li]
		}
		n.freeAt[li] = depart + service
		n.busyTime[li] += service
		cur = depart + n.cfg.HopLatency
	}
	arrival := cur + service
	n.stats.Messages++
	n.stats.TotalHops += int64(len(route))
	n.stats.TotalDistSec += arrival - t
	n.stats.TotalQueueSec += queued
	return result{Arrival: arrival, Hops: len(route), Queued: queued}
}

func (n *refNetwork) pickRoute(src, dst int, t float64) []topo.Link {
	n.routeBuf = refRoute(n.m, n.routeBuf[:0], src, dst, n.cfg.Routing != RouteYX)
	if n.cfg.Routing == RouteAdaptive {
		n.altBuf = refRoute(n.m, n.altBuf[:0], src, dst, false)
		if n.routeWait(n.altBuf, t) < n.routeWait(n.routeBuf, t) {
			return n.altBuf
		}
	}
	return n.routeBuf
}

func (n *refNetwork) routeWait(route []topo.Link, t float64) float64 {
	wait := 0.0
	for _, l := range route {
		if f := n.freeAt[n.m.LinkIndex(l)]; f > t {
			wait += f - t
		}
	}
	return wait
}

// sendRef sends msgs one at a time through the reference, as a caller of
// the per-message network did, and returns the burst's latest arrival
// (t if it is empty) with the sums added in message order. Like Send, it
// moves the clock to t even for an empty burst.
func (n *refNetwork) sendRef(msgs []comm.Msg, nodes []int, t float64, sums *Sums) float64 {
	n.clock = t
	last := t
	for _, m := range msgs {
		r := n.Send(nodes[m.Src], nodes[m.Dst], t)
		sums.Hops += int64(r.Hops)
		sums.Queued += r.Queued
		if r.Arrival > last {
			last = r.Arrival
		}
	}
	return last
}

// sameBits reports whether two float slices are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// matchesRef reports where n's last burst (its latest arrival and the
// caller's sums) and its state (what State returns) first differ from
// the reference's, or "" when they are bit-equal.
func matchesRef(n *Network, ref *refNetwork, last, wantLast float64, sums, wantSums Sums) string {
	switch {
	case math.Float64bits(last) != math.Float64bits(wantLast):
		return fmt.Sprintf("latest arrival %v, reference %v", last, wantLast)
	case sums.Hops != wantSums.Hops || math.Float64bits(sums.Queued) != math.Float64bits(wantSums.Queued):
		return fmt.Sprintf("sums %+v, reference %+v", sums, wantSums)
	case n.stats != ref.stats || math.Float64bits(n.clock) != math.Float64bits(ref.clock):
		return fmt.Sprintf("stats %+v clock %v, reference %+v clock %v", n.stats, n.clock, ref.stats, ref.clock)
	case !sameBits(n.freeAt, ref.freeAt):
		return "per-link freeAt differs"
	case !sameBits(n.busyTime, ref.busyTime):
		return "per-link busyTime differs"
	}
	return ""
}

// oracleGrids are the machines the Send oracle runs on: the paper's
// 16x22 mesh, the native 3-D cube, a 4-D mesh with odd extents, and tori
// in two and three dimensions whose routes wrap.
var oracleGrids = []struct {
	dims  []int
	torus bool
}{
	{[]int{16, 22}, false},
	{[]int{8, 8, 8}, false},
	{[]int{3, 4, 2, 5}, false},
	{[]int{6, 6}, true},
	{[]int{5, 4, 3}, true},
}

func oracleGrid(i int) *topo.Grid {
	if og := oracleGrids[i]; og.torus {
		return topo.NewTorus(og.dims)
	}
	return topo.New(oracleGrids[i].dims)
}

// TestSendMatchesReference drives Send and the hop-by-hop reference with
// the same 3,000 bursts, each a run of 1 to 16 messages between the
// ranks of a random job at nondecreasing times: bursts at one instant
// build queues, gaps drain them, and about one message in 50 is
// self-addressed. On every oracle grid under every routing, each burst's
// latest arrival, the caller's running sums and the full network state
// must be bit-equal to the reference's.
func TestSendMatchesReference(t *testing.T) {
	for gi := range oracleGrids {
		for _, routing := range []Routing{RouteXY, RouteYX, RouteAdaptive} {
			g := oracleGrid(gi)
			t.Run(fmt.Sprintf("%v/torus=%v/%v", oracleGrids[gi].dims, g.Torus(), routing), func(t *testing.T) {
				cfg := testConfig()
				cfg.Routing = routing
				n, ref := New(g, cfg), newRefNetwork(g, cfg)
				rng := rand.New(rand.NewSource(int64(gi)*3 + int64(routing) + 1))
				nodes := rng.Perm(g.Size())[:1+rng.Intn(g.Size())]
				var sums, wantSums Sums
				var msgs []comm.Msg
				now := 0.0
				for i := 0; i < 3000; i++ {
					if rng.Intn(4) == 0 {
						now += rng.Float64() * 0.3
					}
					msgs = msgs[:0]
					for k := 1 + rng.Intn(16); k > 0; k-- {
						m := comm.Msg{Src: rng.Intn(len(nodes)), Dst: rng.Intn(len(nodes))}
						if rng.Intn(50) == 0 {
							m.Dst = m.Src
						}
						msgs = append(msgs, m)
					}
					last, wantLast := n.Send(msgs, nodes, now, &sums), ref.sendRef(msgs, nodes, now, &wantSums)
					if msg := matchesRef(n, ref, last, wantLast, sums, wantSums); msg != "" {
						t.Fatalf("burst %d (%v at %v): %s", i, msgs, now, msg)
					}
				}
				if !sameBits(n.freeAt, ref.freeAt) || !sameBits(n.busyTime, ref.busyTime) || n.stats != ref.stats {
					t.Fatal("link state differs from the reference")
				}
			})
		}
	}
}

// FuzzSendMatchesReference is the oracle under fuzzer-chosen traffic:
// the first three bytes pick the grid, the routing and the job size (a
// prefix of a fixed shuffle of the grid's nodes), then each record is a
// burst: a length byte, that many (source rank, destination rank) byte
// pairs, and a time step.
func FuzzSendMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 40, 2, 1, 200, 0, 1, 1, 1, 5, 9, 3})
	f.Add([]byte{3, 2, 255, 3, 35, 0, 35, 0, 0, 17, 0, 1, 18, 7, 2})
	f.Add([]byte{4, 1, 90, 1, 59, 0, 0, 2, 12, 40, 40, 12, 9, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		g := oracleGrid(int(data[0]) % len(oracleGrids))
		cfg := testConfig()
		cfg.Routing = Routing(int(data[1]) % 3)
		n, ref := New(g, cfg), newRefNetwork(g, cfg)
		nodes := rand.New(rand.NewSource(int64(data[2]))).Perm(g.Size())[:1+int(data[2])%g.Size()]
		var sums, wantSums Sums
		var msgs []comm.Msg
		now := 0.0
		for i := 3; i < len(data); {
			k := int(data[i]) % 17
			i++
			msgs = msgs[:0]
			for ; k > 0 && i+1 < len(data); k, i = k-1, i+2 {
				msgs = append(msgs, comm.Msg{Src: int(data[i]) % len(nodes), Dst: int(data[i+1]) % len(nodes)})
			}
			if i < len(data) {
				now += float64(data[i]%8) * 0.02
				i++
			}
			last, wantLast := n.Send(msgs, nodes, now, &sums), ref.sendRef(msgs, nodes, now, &wantSums)
			if msg := matchesRef(n, ref, last, wantLast, sums, wantSums); msg != "" {
				t.Fatalf("burst %v at %v: %s", msgs, now, msg)
			}
		}
	})
}
