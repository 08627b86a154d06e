package curve

import (
	"testing"
	"testing/quick"

	"meshalloc/internal/topo"
)

func isPermutation(t *testing.T, order []int, n int) {
	t.Helper()
	if len(order) != n {
		t.Fatalf("order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, id := range order {
		if id < 0 || id >= n {
			t.Fatalf("order contains out-of-range id %d", id)
		}
		if seen[id] {
			t.Fatalf("order visits id %d twice", id)
		}
		seen[id] = true
	}
}

var meshSizes = []struct{ w, h int }{
	{1, 1}, {2, 2}, {4, 4}, {8, 8}, {16, 16}, {32, 32},
	{16, 22}, {22, 16}, {3, 5}, {5, 3}, {7, 7}, {1, 9}, {9, 1}, {13, 32},
}

func TestAllCurvesArePermutations(t *testing.T) {
	for _, name := range All() {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		for _, sz := range meshSizes {
			isPermutation(t, c.Order(sz.w, sz.h), sz.w*sz.h)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("peano"); err == nil {
		t.Fatal("ByName(peano) should fail")
	}
}

func TestRowMajorOrder(t *testing.T) {
	order := RowMajor{}.Order(3, 2)
	want := []int{0, 1, 2, 3, 4, 5}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("row-major order = %v, want %v", order, want)
		}
	}
}

func TestSCurveIsHamiltonianPath(t *testing.T) {
	for _, sz := range meshSizes {
		m := topo.New([]int{sz.w, sz.h})
		order := SCurve{}.Order(sz.w, sz.h)
		for i := 1; i < len(order); i++ {
			if m.Dist(order[i-1], order[i]) != 1 {
				t.Fatalf("%dx%d s-curve: step %d->%d has distance %d",
					sz.w, sz.h, order[i-1], order[i], m.Dist(order[i-1], order[i]))
			}
		}
	}
}

func TestSCurveRunsAlongShortDimension(t *testing.T) {
	// On a 16x22 mesh the short dimension is x, so the first 16 entries
	// must be the whole first row.
	order := SCurve{}.Order(16, 22)
	for x := 0; x < 16; x++ {
		if order[x] != x {
			t.Fatalf("s-curve on 16x22: position %d = id %d, want %d", x, order[x], x)
		}
	}
	// On a 22x16 mesh the short dimension is y, so the first 16 entries
	// must be the whole first column.
	order = SCurve{}.Order(22, 16)
	for y := 0; y < 16; y++ {
		if order[y] != y*22 {
			t.Fatalf("s-curve on 22x16: position %d = id %d, want %d", y, order[y], y*22)
		}
	}
}

func TestSCurveLongDirection(t *testing.T) {
	order := SCurve{LongDirection: true}.Order(16, 22)
	// Runs along y (the long dimension): first 22 entries are column 0.
	for y := 0; y < 22; y++ {
		if order[y] != y*16 {
			t.Fatalf("long s-curve on 16x22: position %d = id %d, want %d", y, order[y], y*16)
		}
	}
}

func TestHilbertSquareIsHamiltonianPath(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		m := topo.New([]int{n, n})
		order := Hilbert{}.Order(n, n)
		for i := 1; i < len(order); i++ {
			if m.Dist(order[i-1], order[i]) != 1 {
				t.Fatalf("%dx%d hilbert: non-adjacent step at %d", n, n, i)
			}
		}
	}
}

func TestHilbertStartsAtOrigin(t *testing.T) {
	order := Hilbert{}.Order(8, 8)
	if order[0] != 0 {
		t.Fatalf("hilbert starts at id %d, want 0", order[0])
	}
}

func TestHIndexingSquareIsHamiltonianCycle(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128} {
		m := topo.New([]int{n, n})
		order := HIndexing{}.Order(n, n)
		isPermutation(t, order, n*n)
		for i := 1; i < len(order); i++ {
			if m.Dist(order[i-1], order[i]) != 1 {
				t.Fatalf("%dx%d h-indexing: non-adjacent step at %d (%v -> %v)",
					n, n, i, m.Coord(order[i-1]), m.Coord(order[i]))
			}
		}
		// The defining property: the path closes into a cycle.
		if d := m.Dist(order[len(order)-1], order[0]); d != 1 {
			t.Fatalf("%dx%d h-indexing: cycle does not close (distance %d)", n, n, d)
		}
	}
}

func TestMooreIsHamiltonianCycle(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		m := topo.New([]int{n, n})
		order := Moore{}.Order(n, n)
		isPermutation(t, order, n*n)
		for i := 1; i < len(order); i++ {
			if m.Dist(order[i-1], order[i]) != 1 {
				t.Fatalf("%dx%d moore: non-adjacent step at %d (%v -> %v)",
					n, n, i, m.Coord(order[i-1]), m.Coord(order[i]))
			}
		}
		if d := m.Dist(order[len(order)-1], order[0]); d != 1 {
			t.Fatalf("%dx%d moore: cycle does not close (distance %d)", n, n, d)
		}
	}
}

func TestTruncatedCurvesHaveGaps(t *testing.T) {
	// Truncating the 32x32 Hilbert and H-indexing curves to 16x22
	// produces discontinuities (paper Figure 6); the S-curve stays
	// continuous.
	for _, tc := range []struct {
		c        Curve
		wantGaps bool
	}{
		{Hilbert{}, true},
		{HIndexing{}, true},
		{SCurve{}, false},
	} {
		rep := Locality(tc.c.Order(16, 22), 16, 22)
		if (rep.Gaps > 0) != tc.wantGaps {
			t.Errorf("%s on 16x22: gaps = %d, want gaps>0 == %v", tc.c.Name(), rep.Gaps, tc.wantGaps)
		}
	}
}

func TestLocalityOfSquareCurves(t *testing.T) {
	for _, name := range []string{"hilbert", "hindex", "scurve"} {
		c, _ := ByName(name)
		rep := Locality(c.Order(16, 16), 16, 16)
		if rep.MaxStep != 1 {
			t.Errorf("%s on 16x16: max step %d, want 1", name, rep.MaxStep)
		}
		if rep.Gaps != 0 {
			t.Errorf("%s on 16x16: %d gaps, want 0", name, rep.Gaps)
		}
	}
}

// windowSpread returns the mean pairwise Manhattan distance of consecutive
// rank windows of length k — the clustering property (Moon et al.) that
// makes space-filling curves good page orderings.
func windowSpread(order, dims []int, k int) float64 {
	g := topo.New(dims)
	total, windows := 0.0, 0
	for start := 0; start+k <= len(order); start += k {
		total += g.AvgPairwiseDist(order[start : start+k])
		windows++
	}
	return total / float64(windows)
}

func TestHilbertClustersBetterThanSCurve(t *testing.T) {
	// A window of 16 consecutive ranks is a compact blob under Hilbert
	// and H-indexing but a long line segment under the s-curve, so the
	// fractal curves have smaller mean pairwise distance per window.
	dims := []int{32, 32}
	snake := windowSpread(SCurve{}.Order(32, 32), dims, 16)
	for _, name := range []string{"hilbert", "hindex"} {
		c, _ := ByName(name)
		spread := windowSpread(c.Order(32, 32), dims, 16)
		if spread >= snake {
			t.Errorf("%s window spread %.2f should beat s-curve %.2f", name, spread, snake)
		}
	}
}

func TestHilbert3ClustersBetterThanSnake(t *testing.T) {
	// Windows of consecutive curve ranks should be more compact under
	// the 3-D Hilbert curve than under the 3-D snake.
	dims := []int{8, 8, 8}
	h := windowSpread(Hilbert{}.OrderDims(dims), dims, 16)
	if s := windowSpread(SCurve{}.OrderDims(dims), dims, 16); h >= s {
		t.Fatalf("3-D hilbert window spread %.2f should beat 3-D snake %.2f", h, s)
	}
}

func TestRanksRoundTrip(t *testing.T) {
	order := Hilbert{}.Order(16, 22)
	ranks := Ranks(order)
	for pos, id := range order {
		if ranks[id] != pos {
			t.Fatalf("ranks[%d] = %d, want %d", id, ranks[id], pos)
		}
	}
}

func TestRanksRejectsNonPermutation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Ranks should panic on duplicate ids")
		}
	}()
	Ranks([]int{0, 0, 1})
}

func TestCurvePermutationProperty(t *testing.T) {
	// Property: for arbitrary small mesh shapes every curve yields a
	// permutation, checked with testing/quick.
	f := func(w8, h8 uint8) bool {
		w := int(w8%20) + 1
		h := int(h8%20) + 1
		for _, name := range All() {
			c, err := ByName(name)
			if err != nil {
				return false
			}
			order := c.Order(w, h)
			if len(order) != w*h {
				return false
			}
			seen := make([]bool, w*h)
			for _, id := range order {
				if id < 0 || id >= w*h || seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHilbertD2XYRoundTrip(t *testing.T) {
	// d -> (x,y) must be injective and cover the grid.
	n := 16
	seen := map[[2]int]bool{}
	for d := 0; d < n*n; d++ {
		x, y := hilbertD2XY(n, d)
		p := [2]int{x, y}
		if seen[p] {
			t.Fatalf("hilbertD2XY revisits %v", p)
		}
		if x < 0 || x >= n || y < 0 || y >= n {
			t.Fatalf("hilbertD2XY out of range: %v", p)
		}
		seen[p] = true
	}
}

// TestHilbertD2XYMatchesSkilling pins the classic 2-D construction to
// the n-D one: Hilbert.OrderDims delegates to Order in 2-D only because
// hilbertD2XY is faster, so the two must visit the same cells.
func TestHilbertD2XYMatchesSkilling(t *testing.T) {
	for n := 2; n <= 256; n *= 2 {
		for d := 0; d < n*n; d++ {
			x, y := hilbertD2XY(n, d)
			if p := HilbertPoint(n, 2, d); p != topo.XY(x, y) {
				t.Fatalf("n=%d d=%d: hilbertD2XY = (%d,%d), HilbertPoint = %v", n, d, x, y, p)
			}
		}
	}
}

func TestRenderShape(t *testing.T) {
	// On a 2x4 mesh the short dimension is x, so the snake serpentines
	// rows.
	out := Render(SCurve{}.Order(2, 4), 2, 4)
	want := "0 1\n3 2\n4 5\n7 6\n"
	if out != want {
		t.Fatalf("Render = %q, want %q", out, want)
	}
}

func TestFig6Truncation(t *testing.T) {
	// Reproduces the situation of paper Figure 6: the top rows of the
	// truncated 32x32 curves on a 16x22 mesh contain jumps ("arrows").
	for _, name := range []string{"hilbert", "hindex"} {
		c, _ := ByName(name)
		order := c.Order(16, 22)
		m := topo.New([]int{16, 22})
		gaps := 0
		for i := 1; i < len(order); i++ {
			if m.Dist(order[i-1], order[i]) > 1 {
				gaps++
			}
		}
		if gaps == 0 {
			t.Errorf("%s truncated to 16x22 should have gaps", name)
		}
		if gaps > 24 {
			t.Errorf("%s truncated to 16x22 has implausibly many gaps: %d", name, gaps)
		}
	}
}
