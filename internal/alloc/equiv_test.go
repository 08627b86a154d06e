package alloc

import (
	"testing"

	"meshalloc/internal/topo"
)

// Equivalence tests pinning the indexed (count-don't-gather) MC and
// Gen-Alg scorers to naive reference scorers: same winner, same cost,
// same ids, on random busy patterns over random 2-D and 3-D grids. The
// indexed paths must be bit-identical — candidate iteration order,
// first-strictly-better tie-breaking and gather order included — so the
// comparison is exact id-slice equality, not score equality alone.

// mcNaive is the reference MC scorer: it walks the shells of every free
// candidate and keeps the first strictly better one. It shares MC's
// busy set, shell-0 rule and shell walk, and builds no occupancy index.
type mcNaive struct {
	*MC
	bestBuf []int
}

// newMCNaive returns the reference MC scorer, or with oneByOne the
// reference MC1x1 scorer.
func newMCNaive(g *topo.Grid, oneByOne bool) *mcNaive {
	return &mcNaive{MC: &MC{tracker: newTracker(g), oneByOne: oneByOne}}
}

// Allocate implements Allocator. gather fills gatherBuf, and the two
// buffers swap when a candidate wins.
func (a *mcNaive) Allocate(req Request) ([]int, error) {
	if err := a.check(req.Size); err != nil {
		return nil, err
	}
	ext := a.shell0(req)
	bestCost := -1
	for center := 0; center < a.g.Size(); center++ {
		if a.busy[center] {
			continue
		}
		cost, ok := a.gather(a.g.Coord(center), ext, req.Size)
		if !ok {
			continue
		}
		if bestCost == -1 || cost < bestCost {
			bestCost = cost
			a.bestBuf, a.gatherBuf = a.gatherBuf, a.bestBuf
		}
	}
	if bestCost == -1 {
		return nil, ErrInsufficient
	}
	best := append([]int(nil), a.bestBuf...)
	a.take(best)
	return best, nil
}

// xorshift is the deterministic pattern generator shared by the
// equivalence tests and the fuzz harness.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	if v == 0 {
		v = 0x9e3779b97f4a7c15
	}
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

// equivGrid derives a random grid from sel: a small 2-D or 3-D grid,
// or one time in four a larger 3-D grid (7-12 per axis) whose long axes
// give Gen-Alg's twin classes several members.
func equivGrid(sel uint64) *topo.Grid {
	x := xorshift(sel | 1)
	switch x.intn(4) {
	case 0, 1:
		return topo.New([]int{2 + x.intn(10), 2 + x.intn(10)})
	case 2:
		return topo.New([]int{2 + x.intn(5), 2 + x.intn(5), 2 + x.intn(5)})
	}
	return topo.New([]int{7 + x.intn(6), 7 + x.intn(6), 7 + x.intn(6)})
}

// equivPair builds an indexed/naive allocator pair over g with an
// identical random busy pattern of roughly density/256 busy cells —
// an eighth of that on equivGrid's larger grids (over 6x6x6 nodes),
// which stay sparse (at most ~12% busy) so that many of their centers
// are twins.
func equivPair(g *topo.Grid, pattern uint64, density int,
	mk func(*topo.Grid) Allocator) (indexed, naive Allocator, busy []int) {
	indexed = mk(g)
	if g.Size() > 6*6*6 {
		density /= 8
	}
	x := xorshift(pattern | 1)
	for id := 0; id < g.Size(); id++ {
		if x.intn(256) < density {
			busy = append(busy, id)
		}
	}
	switch a := indexed.(type) {
	case *MC:
		n := newMCNaive(g, a.oneByOne)
		naive = n
		if len(busy) > 0 {
			a.take(busy)
			n.take(busy)
		}
	case *GenAlg:
		n := NewGenAlgNaive(g)
		naive = n
		if len(busy) > 0 {
			a.take(busy)
			n.take(busy)
		}
	}
	return indexed, naive, busy
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runEquivalence drives an indexed/naive pair through a short
// allocate/release workload and requires identical outcomes at every
// step.
func runEquivalence(t *testing.T, g *topo.Grid, pattern uint64, density int,
	name string, mk func(*topo.Grid) Allocator) {
	t.Helper()
	indexed, naive, _ := equivPair(g, pattern, density, mk)
	x := xorshift(pattern ^ 0xdeadbeef | 1)
	var live [][]int
	for step := 0; step < 6; step++ {
		free := indexed.NumFree()
		if free != naive.NumFree() {
			t.Fatalf("%s dims %v: NumFree diverged: %d vs %d", name, g.Dims(), free, naive.NumFree())
		}
		if free == 0 {
			break
		}
		size := 1 + x.intn(min(free, 24))
		req := Request{Size: size}
		if x.intn(3) == 0 {
			// Exercise explicit shapes on the shape-aware path.
			req.ShapeW, req.ShapeH = 1+x.intn(5), 1+x.intn(5)
		}
		got, err1 := indexed.Allocate(req)
		want, err2 := naive.Allocate(req)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s dims %v size %d: error mismatch: %v vs %v", name, g.Dims(), size, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !sameIDs(got, want) {
			t.Fatalf("%s dims %v size %d pattern %#x: indexed ids %v != naive ids %v",
				name, g.Dims(), size, pattern, got, want)
		}
		live = append(live, got)
		if len(live) > 1 && x.intn(2) == 0 {
			i := x.intn(len(live))
			indexed.Release(live[i])
			naive.Release(live[i])
			live = append(live[:i], live[i+1:]...)
		}
	}
}

var equivVariants = []struct {
	name string
	mk   func(*topo.Grid) Allocator
}{
	{"mc", func(g *topo.Grid) Allocator { return NewMC(g) }},
	{"mc1x1", func(g *topo.Grid) Allocator { return NewMC1x1(g) }},
	{"genalg", func(g *topo.Grid) Allocator { return NewGenAlg(g) }},
}

// TestIndexedMatchesNaiveRandom sweeps deterministic random grids,
// densities and workloads for every indexed allocator.
func TestIndexedMatchesNaiveRandom(t *testing.T) {
	for _, v := range equivVariants {
		t.Run(v.name, func(t *testing.T) {
			x := xorshift(42)
			for trial := 0; trial < 120; trial++ {
				g := equivGrid(x.next())
				density := x.intn(240)
				runEquivalence(t, g, x.next(), density, v.name, v.mk)
			}
		})
	}
}

// TestCountCostMatchesGather compares MC's counted candidate cost with
// the walked gather cost directly, center by center, pruning disabled.
func TestCountCostMatchesGather(t *testing.T) {
	x := xorshift(7)
	for trial := 0; trial < 80; trial++ {
		g := equivGrid(x.next())
		a, _, _ := equivPair(g, x.next(), x.intn(230), func(g *topo.Grid) Allocator { return NewMC(g) })
		mc := a.(*MC)
		size := 1 + x.intn(min(mc.NumFree()+1, 20))
		if size > mc.NumFree() {
			continue
		}
		ext := Request{Size: size}.ShapeExt(g.ND())
		for probe := 0; probe < 10; probe++ {
			center := x.intn(g.Size())
			if mc.busy[center] {
				continue
			}
			counted, okC := mc.countCost(g.Coord(center), ext, size, -1)
			walked, okW := mc.gather(g.Coord(center), ext, size)
			if okC != okW || counted != walked {
				t.Fatalf("dims %v center %d size %d: counted (%d, %v) != walked (%d, %v)",
					g.Dims(), center, size, counted, okC, walked, okW)
			}
		}
	}
}

// TestCostFloorBoundsEveryCenter checks the floor MC's scan stops at
// against every free center's counted cost, pruning disabled, on random
// 2-D and 3-D states with masked nodes, for MC and MC1x1 and explicit
// shapes: no center may score below it. MC's derived shape covers the
// request, so its floor is 0.
func TestCostFloorBoundsEveryCenter(t *testing.T) {
	x := xorshift(13)
	for trial := 0; trial < 80; trial++ {
		g := equivGrid(x.next())
		v := equivVariants[trial%2]
		a, _, _ := equivPair(g, x.next(), x.intn(230), v.mk)
		mc := a.(*MC)
		for i := 0; i < 3; i++ {
			if id := x.intn(g.Size()); !mc.busy[id] {
				mc.MarkDown(id)
			}
		}
		for probe := 0; probe < 4; probe++ {
			size := 1 + x.intn(min(mc.NumFree()+1, 40))
			if size > mc.NumFree() {
				continue
			}
			req := Request{Size: size}
			if x.intn(3) == 0 {
				req.ShapeW, req.ShapeH = 1+x.intn(5), 1+x.intn(5)
			}
			ext := mc.shell0(req)
			floor := mc.costFloor(ext, size)
			if !mc.oneByOne && req.ShapeW == 0 && floor != 0 {
				t.Fatalf("%s dims %v size %d: derived shape %v has floor %d, want 0",
					v.name, g.Dims(), size, ext, floor)
			}
			for c := 0; c < g.Size(); c++ {
				if mc.busy[c] {
					continue
				}
				if cost, ok := mc.countCost(g.Coord(c), ext, size, -1); !ok || cost < floor {
					t.Fatalf("%s dims %v req %+v center %d: cost (%d, %v) below floor %d",
						v.name, g.Dims(), req, c, cost, ok, floor)
				}
			}
		}
	}
}

// TestCostFloorIsTight checks that the floor is the least cost, not
// just a bound: on an empty grid with room around its middle for the
// unclipped box of every shell up to the cutoff, some center scores
// exactly the floor.
func TestCostFloorIsTight(t *testing.T) {
	for _, dims := range [][]int{{32, 32}, {16, 22}, {16, 16, 16}} {
		g := topo.New(dims)
		for _, v := range equivVariants[:2] {
			mc := v.mk(g).(*MC)
			for size := 1; size <= 64; size++ {
				for _, req := range []Request{{Size: size}, {Size: size, ShapeW: 3, ShapeH: 2}} {
					ext := mc.shell0(req)
					least := -1
					for c := 0; c < g.Size(); c++ {
						if cost, _ := mc.countCost(g.Coord(c), ext, size, -1); least == -1 || cost < least {
							least = cost
						}
					}
					if floor := mc.costFloor(ext, size); least != floor {
						t.Fatalf("%s dims %v req %+v: least cost %d, floor %d", v.name, dims, req, least, floor)
					}
				}
			}
		}
	}
}

// TestCountPairwiseMatchesGather compares Gen-Alg's counted pairwise
// score with the gathered set's score, center by center.
func TestCountPairwiseMatchesGather(t *testing.T) {
	x := xorshift(9)
	for trial := 0; trial < 80; trial++ {
		g := equivGrid(x.next())
		a, n, _ := equivPair(g, x.next(), x.intn(230), func(g *topo.Grid) Allocator { return NewGenAlg(g) })
		ga, ref := a.(*GenAlg), n.(*GenAlg)
		if ga.balls == nil {
			t.Fatalf("dims %v: indexed genalg lacks ball index", g.Dims())
		}
		k := 1 + x.intn(min(ga.NumFree()+1, 20))
		if k > ga.NumFree() {
			continue
		}
		ga.radius = x.intn(5) // any hint must give the same answer
		for probe := 0; probe < 10; probe++ {
			center := x.intn(g.Size())
			if ga.busy[center] {
				continue
			}
			counted := ga.countPairwise(center, k)
			ref.nearest(center, k)
			walked := ref.totalPairwise(ref.nearBuf)
			if counted != walked {
				t.Fatalf("dims %v center %d k %d: counted %d != walked %d",
					g.Dims(), center, k, counted, walked)
			}
		}
	}
}

// FuzzIndexedScoringEquivalence lets the fuzzer hunt for busy patterns
// where the indexed scorers diverge from the naive references.
func FuzzIndexedScoringEquivalence(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(80))
	f.Add(uint64(0xfeed), uint64(0xbeef), uint8(200))
	f.Add(uint64(0x1234), uint64(0x5678), uint8(10))
	f.Add(uint64(42), uint64(42), uint8(128))
	f.Add(uint64(3), uint64(7), uint8(0))
	f.Add(uint64(11), uint64(99), uint8(60))
	f.Fuzz(func(t *testing.T, dimSel, pattern uint64, density uint8) {
		g := equivGrid(dimSel)
		for _, v := range equivVariants {
			runEquivalence(t, g, pattern, int(density), v.name, v.mk)
		}
	})
}
