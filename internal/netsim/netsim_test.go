package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"meshalloc/internal/topo"
)

func testConfig() Config {
	return Config{MessageFlits: 10, FlitCycle: 0.01, HopLatency: 0.005, LocalDelay: 0.001}
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
	r := n.Send(m.ID(topo.XY(0, 0)), m.ID(topo.XY(3, 0)), 0)
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
	r := n.Send(5, 5, 2.0)
	if r.Hops != 0 || r.Arrival != 2.001 {
		t.Fatalf("self message result = %+v", r)
	}
}

func TestContentionSerializesSharedLink(t *testing.T) {
	m := topo.New([]int{8, 1})
	n := New(m, testConfig())
	// Two messages crossing the same link 0->1 at the same time: the
	// second queues for one service time (0.1).
	r1 := n.Send(0, 2, 0)
	r2 := n.Send(0, 2, 0)
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
	r1 := n.Send(0, 3, 0)
	r2 := n.Send(3, 0, 0) // full duplex: reverse links are distinct
	if r1.Queued != 0 || r2.Queued != 0 {
		t.Fatalf("duplex messages queued %g and %g", r1.Queued, r2.Queued)
	}
}

func TestDisjointPathsDoNotContend(t *testing.T) {
	m := topo.New([]int{8, 8})
	n := New(m, testConfig())
	r1 := n.Send(m.ID(topo.XY(0, 0)), m.ID(topo.XY(3, 0)), 0)
	r2 := n.Send(m.ID(topo.XY(0, 4)), m.ID(topo.XY(3, 4)), 0)
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
	n.Send(m.ID(topo.XY(0, 0)), m.ID(topo.XY(2, 2)), 0)
	r2 := n.Send(m.ID(topo.XY(2, 0)), m.ID(topo.XY(2, 2)), 0)
	if r2.Queued <= 0 {
		t.Fatal("column-sharing messages should contend under x-y routing")
	}
}

func TestSendPanicsOnTimeTravel(t *testing.T) {
	m := topo.New([]int{4, 4})
	n := New(m, testConfig())
	n.Send(0, 1, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Send should panic")
		}
	}()
	n.Send(0, 1, 4)
}

func TestStatsAccumulate(t *testing.T) {
	m := topo.New([]int{8, 8})
	n := New(m, testConfig())
	n.Send(0, 1, 0)
	n.Send(0, 2, 0)
	n.Send(3, 3, 1)
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
	New(m, testConfig()).Send(0, 5, 10)
	n := New(m, testConfig())
	if n.Stats().Messages != 0 {
		t.Fatal("stats shared through the grid")
	}
	r := n.Send(0, 5, 0) // the clock starts at zero too
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
		probeQuiet := quiet.Send(src, dst, 1.0)

		busy := New(m, testConfig())
		for _, b := range bg {
			s := int(b>>8) % m.Size()
			d := int(b&0xff) % m.Size()
			busy.Send(s, d, 0.5)
		}
		probeBusy := busy.Send(src, dst, 1.0)

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
		r := nn.Send(0, d, 0) // along the bottom row: d hops
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
		r := n.Send(src, dst, float64(i)*0.01)
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
		r := n.Send(src, dst, t0)
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
	n.Send(m.ID(topo.XY(0, 0)), m.ID(topo.XY(2, 2)), 0)
	r2 := n.Send(m.ID(topo.XY(0, 2)), m.ID(topo.XY(2, 2)), 0)
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
		n.Send(src, m.ID(topo.XY(3, 0)), 0)
	}
	r := n.Send(src, dst, 0)
	// The adaptive router should take the y-first route and dodge the
	// queue entirely.
	if r.Queued != 0 {
		t.Fatalf("adaptive route queued %g, want 0", r.Queued)
	}

	// A plain x-y network must queue in the same situation.
	nxy := New(m, testConfig())
	for i := 0; i < 5; i++ {
		nxy.Send(src, m.ID(topo.XY(3, 0)), 0)
	}
	if r := nxy.Send(src, dst, 0); r.Queued <= 0 {
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
	n.Send(0, 1, 1.0)
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
	n.Send(0, 3, 1.0) // bottom row eastward
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
	New(m, testConfig()).Send(0, 3, 1.0)
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

// refNetwork is the route-building Send the route-free walk replaced,
// kept as the oracle: every message's route is materialized as
// []topo.Link through AppendRoute/AppendRouteRev and link state is
// indexed with LinkIndex, one link at a time.
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

func (n *refNetwork) Send(src, dst int, t float64) Result {
	n.clock = t
	if src == dst {
		n.stats.Messages++
		n.stats.TotalDistSec += n.cfg.LocalDelay
		return Result{Arrival: t + n.cfg.LocalDelay}
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
	return Result{Arrival: arrival, Hops: len(route), Queued: queued}
}

func (n *refNetwork) pickRoute(src, dst int, t float64) []topo.Link {
	switch n.cfg.Routing {
	case RouteYX:
		n.routeBuf = n.m.AppendRouteRev(n.routeBuf[:0], src, dst)
	case RouteAdaptive:
		n.routeBuf = n.m.AppendRoute(n.routeBuf[:0], src, dst)
		n.altBuf = n.m.AppendRouteRev(n.altBuf[:0], src, dst)
		if n.routeWait(n.altBuf, t) < n.routeWait(n.routeBuf, t) {
			return n.altBuf
		}
	default:
		n.routeBuf = n.m.AppendRoute(n.routeBuf[:0], src, dst)
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

// matchesRef reports where n's last Result r and its state (what State
// returns) first differ from the reference's, or "" when they are
// bit-equal.
func matchesRef(n *Network, ref *refNetwork, r, want Result) string {
	switch {
	case r.Hops != want.Hops || math.Float64bits(r.Arrival) != math.Float64bits(want.Arrival) ||
		math.Float64bits(r.Queued) != math.Float64bits(want.Queued):
		return fmt.Sprintf("result %+v, reference %+v", r, want)
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

// TestSendMatchesReference drives Send and the route-building reference
// with the same 12,000 random sends at nondecreasing times — bursts at
// one instant build queues, gaps drain them, and a few messages are
// self-addressed — on every oracle grid under every routing, and
// requires the Result and the full network state to be bit-equal after
// every send.
func TestSendMatchesReference(t *testing.T) {
	for gi := range oracleGrids {
		for _, routing := range []Routing{RouteXY, RouteYX, RouteAdaptive} {
			g := oracleGrid(gi)
			t.Run(fmt.Sprintf("%v/torus=%v/%v", oracleGrids[gi].dims, g.Torus(), routing), func(t *testing.T) {
				cfg := testConfig()
				cfg.Routing = routing
				n, ref := New(g, cfg), newRefNetwork(g, cfg)
				rng := rand.New(rand.NewSource(int64(gi)*3 + int64(routing) + 1))
				now := 0.0
				for i := 0; i < 12000; i++ {
					if rng.Intn(4) == 0 {
						now += rng.Float64() * 0.3
					}
					src, dst := rng.Intn(g.Size()), rng.Intn(g.Size())
					if rng.Intn(50) == 0 {
						dst = src
					}
					r, want := n.Send(src, dst, now), ref.Send(src, dst, now)
					if msg := matchesRef(n, ref, r, want); msg != "" {
						t.Fatalf("send %d (%d->%d at %v): %s", i, src, dst, now, msg)
					}
				}
				st := n.State()
				if !sameBits(st.FreeAt, ref.freeAt) || !sameBits(st.BusyTime, ref.busyTime) || st.Stats != ref.stats {
					t.Fatal("State() differs from the reference")
				}
			})
		}
	}
}

// FuzzSendMatchesReference is the oracle under fuzzer-chosen traffic:
// the first two bytes pick the grid and routing, then every three bytes
// are one send (source, destination, time step).
func FuzzSendMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 200, 0, 1, 200, 0, 5, 9, 3})
	f.Add([]byte{3, 2, 0, 35, 0, 35, 0, 0, 17, 18, 1, 7, 30, 2})
	f.Add([]byte{4, 1, 0, 59, 0, 59, 0, 0, 12, 40, 0, 40, 12, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g := oracleGrid(int(data[0]) % len(oracleGrids))
		cfg := testConfig()
		cfg.Routing = Routing(int(data[1]) % 3)
		n, ref := New(g, cfg), newRefNetwork(g, cfg)
		now := 0.0
		for i := 2; i+2 < len(data); i += 3 {
			src := int(data[i]) * g.Size() / 256
			dst := int(data[i+1]) * g.Size() / 256
			now += float64(data[i+2]%8) * 0.02
			r, want := n.Send(src, dst, now), ref.Send(src, dst, now)
			if msg := matchesRef(n, ref, r, want); msg != "" {
				t.Fatalf("send %d->%d at %v: %s", src, dst, now, msg)
			}
		}
	})
}
