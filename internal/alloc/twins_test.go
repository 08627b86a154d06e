package alloc

import (
	"fmt"
	"sort"
	"testing"

	"meshalloc/internal/topo"
)

// Twin-skip tests: on lightly loaded machines, where most free centers
// are twins, the indexed Gen-Alg must still return exactly the naive
// reference's ids, and the pre-pass must actually collapse the
// candidate set.

// twinGrids mixes long axes (many centers per clip class) with short
// ones (5x9x16 and 3x17 have axes with no middle class at most sizes).
var twinGrids = [][]int{{16, 16, 16}, {16, 22}, {32, 32}, {5, 9, 16}, {3, 17}}

// sparseState marks about busyPct% of g's nodes busy and masks about
// 1% more with MarkDown, identically on every allocator given.
func sparseState(g *topo.Grid, seed uint64, busyPct int, as ...interface {
	take(ids []int)
	MarkDown(id int)
}) {
	x := xorshift(seed | 1)
	for id := 0; id < g.Size(); id++ {
		switch r := x.intn(1000); {
		case r < 10*busyPct:
			for _, a := range as {
				a.take([]int{id})
			}
		case r < 10*busyPct+10:
			for _, a := range as {
				a.MarkDown(id)
			}
		}
	}
}

// TestTwinSkipMatchesNaiveSparse compares indexed Gen-Alg against the
// naive reference on sparse machines (see matchSparse).
func TestTwinSkipMatchesNaiveSparse(t *testing.T) {
	for gi, dims := range twinGrids {
		g := topo.New(dims)
		for si, busyPct := range []int{0, 3, 10} {
			t.Run(fmt.Sprintf("%v/busy%d", dims, busyPct), func(t *testing.T) {
				naive, indexed := NewGenAlgNaive(g), NewGenAlg(g)
				sparseState(g, uint64(gi*31+busyPct), busyPct, naive, indexed)
				matchSparse(t, naive, indexed, si)
			})
		}
	}
}

// TestMCFloorMatchesNaiveSparse compares MC and MC1x1 against the walked
// reference on the same sparse machines. Most of these requests find a
// center at the cost floor, where the scan stops early.
func TestMCFloorMatchesNaiveSparse(t *testing.T) {
	for gi, dims := range twinGrids {
		g := topo.New(dims)
		for _, oneByOne := range []bool{false, true} {
			for si, busyPct := range []int{0, 3, 10} {
				naive, indexed := newMCNaive(g, oneByOne), NewMC(g)
				indexed.oneByOne = oneByOne
				t.Run(fmt.Sprintf("%v/%s/busy%d", dims, indexed.Name(), busyPct), func(t *testing.T) {
					sparseState(g, uint64(gi*31+busyPct), busyPct, naive, indexed)
					matchSparse(t, naive, indexed, si)
				})
			}
		}
	}
}

// matchSparse requests the same sizes from naive and indexed and
// requires identical ids. Sparse state si of 0, 1, 2 (0, 3 and 10%
// busy) takes every third size from 1+si to 80, so the three states
// share the sizes 1..80 between them (the naive references cost O(n·k)
// per request), and one large request, a 16th, 8th or 4th of the free
// nodes. Every allocation is released before the next, so the state is
// fixed.
func matchSparse(t *testing.T, naive, indexed Allocator, si int) {
	t.Helper()
	free := naive.NumFree()
	sizes := []int{free / (16 >> si)}
	for k := 1 + si; k <= 80; k += 3 {
		sizes = append(sizes, k)
	}
	for _, k := range sizes {
		if k < 1 || k > free {
			continue
		}
		want, err := naive.Allocate(Request{Size: k})
		if err != nil {
			t.Fatalf("k %d: naive: %v", k, err)
		}
		got, err := indexed.Allocate(Request{Size: k})
		if err != nil {
			t.Fatalf("k %d: %v", k, err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("k %d: ids %v, naive %v", k, got, want)
		}
		indexed.Release(got)
		naive.Release(want)
	}
}

// TestTwinSkipScoresOnePerClass counts the candidates the pre-pass
// leaves to score on an empty 16x16x16 machine. At k = 8 the interior
// and corner radii are both 2, so each axis has five clip classes —
// coordinates 0, 1, 2..13, 14 and 15 — and at most 5^3 = 125 of the
// 4,096 centers remain. At k = 26 the corner radius is 4 and the
// interior radius 3: the scored count must equal the number of
// distinct (ρ, clipped offsets) classes an oracle finds by counting
// each center's clipped balls directly, 343 (a rule keyed on the
// corner radius alone scores 9^3 = 729).
func TestTwinSkipScoresOnePerClass(t *testing.T) {
	g := topo.New([]int{16, 16, 16})
	a := NewGenAlg(g)
	if scored := countScored(a.twinSkips(8)); scored > 125 {
		t.Fatalf("empty 16x16x16, k 8: %d candidates scored, want <= 125", scored)
	}
	classes := map[[7]int]bool{}
	for c := 0; c < g.Size(); c++ {
		rho := sort.SearchInts(ballSizes(g, c), 26)
		key := [7]int{rho}
		p := g.Coord(c)
		for ax := 0; ax < 3; ax++ {
			key[1+2*ax], key[2+2*ax] = min(p[ax], rho), min(g.Dim(ax)-1-p[ax], rho)
		}
		classes[key] = true
	}
	if scored := countScored(a.twinSkips(26)); scored != len(classes) || scored != 343 {
		t.Fatalf("empty 16x16x16, k 26: %d candidates scored, oracle finds %d classes, want 343", scored, len(classes))
	}
	// Busy and masked centers are always passed over.
	sparseState(a.g, 5, 3, a)
	skip := a.twinSkips(8)
	for id, b := range a.busy {
		if b && !skip[id] {
			t.Fatalf("busy center %d not skipped", id)
		}
	}
}

func countScored(skip []bool) int {
	n := 0
	for _, s := range skip {
		if !s {
			n++
		}
	}
	return n
}

// ballSizes counts the nodes of g within each L1 distance r of center,
// for r from 0 to the grid's largest distance.
func ballSizes(g *topo.Grid, center int) []int {
	maxR := 0
	for ax := 0; ax < g.ND(); ax++ {
		maxR += g.Dim(ax) - 1
	}
	ball := make([]int, maxR+1)
	for id := 0; id < g.Size(); id++ {
		ball[g.Dist(id, center)]++
	}
	for r := 1; r < len(ball); r++ {
		ball[r] += ball[r-1]
	}
	return ball
}

// TestBallSizeMatchesCount checks the inclusion–exclusion ball size the
// pre-pass derives each class's radius from against a direct count,
// for every center and radius of grids with long, short and unit axes.
func TestBallSizeMatchesCount(t *testing.T) {
	for _, dims := range append([][]int{{1, 7}, {4, 1, 6}, {2, 2, 2}}, twinGrids[1:]...) {
		g := topo.New(dims)
		ts := newTwinScratch(g)
		for c := 0; c < g.Size(); c++ {
			p := g.Coord(c)
			var lo, hi [3]int
			for ax := 0; ax < g.ND(); ax++ {
				lo[ax], hi[ax] = p[ax], g.Dim(ax)-1-p[ax]
			}
			for r, want := range ballSizes(g, c) {
				if got := ts.ballSize(&lo, &hi, g.ND(), r); got != want {
					t.Fatalf("%v center %v r %d: ballSize %d, counted %d", dims, p, r, got, want)
				}
			}
		}
	}
}

// TestTwinSkipGathersTranslates checks the property the skip rests on
// (see checkTwinTranslates) on fixed grids and sizes.
func TestTwinSkipGathersTranslates(t *testing.T) {
	for gi, dims := range twinGrids {
		g := topo.New(dims)
		a, ref := NewGenAlg(g), NewGenAlgNaive(g)
		sparseState(g, uint64(gi), 3, a, ref)
		for _, k := range []int{1, 2, 5, 6, 8, 13, 16, 26, 32} {
			checkTwinTranslates(t, a, ref, k)
		}
	}
}

// FuzzTwinSkips checks the same property on random 2-D and 3-D grids,
// long axes included, with random sparse busy and masked sets and
// random request sizes.
func FuzzTwinSkips(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(8), uint16(26))
	f.Add(uint64(7), uint64(3), uint8(0), uint16(5))
	f.Add(uint64(12), uint64(5), uint8(20), uint16(64))
	f.Add(uint64(40), uint64(9), uint8(3), uint16(1))
	f.Fuzz(func(t *testing.T, sel, pattern uint64, busyPct uint8, k uint16) {
		x := xorshift(sel | 1)
		var dims []int
		switch x.intn(3) {
		case 0:
			dims = []int{1 + x.intn(12), 1 + x.intn(12), 1 + x.intn(12)}
		case 1:
			dims = []int{1 + x.intn(40), 1 + x.intn(8), 1 + x.intn(6)}
		default:
			dims = []int{1 + x.intn(48), 1 + x.intn(24)}
		}
		for i := len(dims) - 1; i > 0; i-- {
			j := x.intn(i + 1)
			dims[i], dims[j] = dims[j], dims[i]
		}
		g := topo.New(dims)
		a, ref := NewGenAlg(g), NewGenAlgNaive(g)
		sparseState(g, pattern, int(busyPct%13), a, ref)
		if free := a.NumFree(); free > 0 {
			checkTwinTranslates(t, a, ref, 1+int(k)%min(free, 200))
		}
	})
}

// checkTwinTranslates checks the property the skip rests on: every
// free center twinSkips(k) passes over gathers, in the same order, a
// translate of the set that some lower-id scored center gathers, so
// its score can only tie.
func checkTwinTranslates(t *testing.T, a, ref *GenAlg, k int) {
	t.Helper()
	skip := a.twinSkips(k)
	scored := map[string]bool{}
	for c, s := range skip {
		if a.busy[c] {
			continue
		}
		ref.nearest(c, k)
		key := gatherOffsets(a.g, c, ref.nearBuf)
		if !s {
			scored[key] = true
		} else if !scored[key] {
			t.Fatalf("%v k %d: twin %d gathers no translate of a lower-id scored set", a.g.Dims(), k, c)
		}
	}
}

// gatherOffsets renders ids as their coordinate offsets from center, in
// order.
func gatherOffsets(g *topo.Grid, center int, ids []int) string {
	c := g.Coord(center)
	var b []byte
	for _, id := range ids {
		p := g.Coord(id)
		for ax := 0; ax < g.ND(); ax++ {
			b = fmt.Appendf(b, "%d,", p[ax]-c[ax])
		}
		b = append(b, ';')
	}
	return string(b)
}
