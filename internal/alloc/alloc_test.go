package alloc

import (
	"sort"
	"testing"
	"testing/quick"

	"meshalloc/internal/binpack"
	"meshalloc/internal/curve"
	"meshalloc/internal/topo"
)

func allAllocators(t *testing.T, m *topo.Grid) []Allocator {
	t.Helper()
	var as []Allocator
	for _, spec := range append(Fig11Specs(), "random") {
		a, err := Spec(m, spec, 1)
		if err != nil {
			t.Fatalf("Spec(%q): %v", spec, err)
		}
		as = append(as, a)
	}
	return as
}

func TestSpecNames(t *testing.T) {
	m := topo.New([]int{8, 8})
	for _, spec := range append(Fig11Specs(), "random") {
		a, err := Spec(m, spec, 1)
		if err != nil {
			t.Fatalf("Spec(%q): %v", spec, err)
		}
		if a.Name() != spec {
			t.Errorf("Spec(%q).Name() = %q", spec, a.Name())
		}
	}
	if _, err := Spec(m, "nope", 1); err == nil {
		t.Error("unknown spec should fail")
	}
	if _, err := Spec(m, "hilbert/nope", 1); err == nil {
		t.Error("unknown strategy should fail")
	}
}

// TestSpecRejectsUnbuildableCurves: Spec returns an error, without
// building an order, for a curve whose enclosing power-of-two cube holds
// more than curve.MaxCubeCells cells (65536^4 overflows int, 8192^2 is
// 2^26) and for a page size whose side 1<<s overflows int. A page grid
// whose cube fits is accepted on a machine whose own cube does not.
func TestSpecRejectsUnbuildableCurves(t *testing.T) {
	for _, tc := range []struct {
		dims []int
		spec string
	}{
		{[]int{65535, 32, 1, 1}, "hilbert"},
		{[]int{65535, 32, 1, 1}, "zorder/bestfit"},
		{[]int{8192, 4}, "hilbert"},
		{[]int{8, 8}, "hilbert/bestfit/page63"},
		{[]int{8, 8}, "hilbert/bestfit/page64"},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Spec(%v, %q) panicked: %v", tc.dims, tc.spec, r)
				}
			}()
			if _, err := Spec(topo.New(tc.dims), tc.spec, 1); err == nil {
				t.Errorf("Spec(%v, %q) accepted", tc.dims, tc.spec)
			}
		}()
	}
	// 8192x4 in 4x4 pages is a 2048x1 page grid: a 2^22-cell cube.
	if _, err := Spec(topo.New([]int{8192, 4}), "hilbert/freelist/page2", 1); err != nil {
		t.Errorf("paged hilbert on 8192x4: %v", err)
	}
}

func TestRequestShape(t *testing.T) {
	tests := []struct {
		size, w, h int
	}{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {5, 3, 2}, {6, 3, 2},
		{9, 3, 3}, {12, 4, 3}, {24, 5, 5}, {30, 6, 5}, {128, 12, 11},
	}
	for _, tc := range tests {
		w, h := Request{Size: tc.size}.Shape()
		if w != tc.w || h != tc.h {
			t.Errorf("Shape(%d) = %dx%d, want %dx%d", tc.size, w, h, tc.w, tc.h)
		}
		if w*h < tc.size {
			t.Errorf("Shape(%d) = %dx%d does not cover the request", tc.size, w, h)
		}
	}
	// Explicit shape passes through.
	w, h := Request{Size: 6, ShapeW: 6, ShapeH: 1}.Shape()
	if w != 6 || h != 1 {
		t.Errorf("explicit shape = %dx%d", w, h)
	}
}

// TestAllocateInvariants drives every allocator through an
// allocate/release workload and checks the core contract: the right
// count, all free beforehand, no duplicates, and full recovery on
// release.
func TestAllocateInvariants(t *testing.T) {
	m := topo.New([]int{8, 8})
	for _, a := range allAllocators(t, m) {
		busy := map[int]bool{}
		var live [][]int
		sizes := []int{1, 5, 3, 16, 2, 7, 9, 4}
		for _, sz := range sizes {
			ids, err := a.Allocate(Request{Size: sz})
			if err != nil {
				t.Fatalf("%s: Allocate(%d): %v", a.Name(), sz, err)
			}
			if len(ids) != sz {
				t.Fatalf("%s: got %d ids, want %d", a.Name(), len(ids), sz)
			}
			for _, id := range ids {
				if id < 0 || id >= m.Size() {
					t.Fatalf("%s: id %d out of range", a.Name(), id)
				}
				if busy[id] {
					t.Fatalf("%s: id %d allocated twice", a.Name(), id)
				}
				busy[id] = true
			}
			live = append(live, ids)
		}
		want := m.Size() - len(busy)
		if a.NumFree() != want {
			t.Fatalf("%s: NumFree = %d, want %d", a.Name(), a.NumFree(), want)
		}
		for _, ids := range live {
			a.Release(ids)
		}
		if a.NumFree() != m.Size() {
			t.Fatalf("%s: NumFree after release = %d", a.Name(), a.NumFree())
		}
	}
}

func TestAllocateErrors(t *testing.T) {
	m := topo.New([]int{4, 4})
	for _, a := range allAllocators(t, m) {
		if _, err := a.Allocate(Request{Size: 17}); err != ErrInsufficient {
			t.Errorf("%s: oversize error = %v", a.Name(), err)
		}
		if _, err := a.Allocate(Request{Size: 0}); err == nil {
			t.Errorf("%s: zero size should fail", a.Name())
		}
	}
}

func TestPagingFreeListOnEmptyMeshIsCurvePrefix(t *testing.T) {
	m := topo.New([]int{8, 8})
	c := curve.Hilbert{}
	a := NewPaging(m, c, binpack.FreeList)
	ids, err := a.Allocate(Request{Size: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := c.Order(8, 8)[:16]
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("free-list prefix = %v, want %v", ids, want)
		}
	}
	// A Hilbert prefix of 16 on an empty mesh is a contiguous quadrant.
	if len(m.Components(ids)) != 1 {
		t.Error("hilbert prefix should be contiguous")
	}
}

func TestMCAllocatesRequestedShapeOnEmptyMesh(t *testing.T) {
	m := topo.New([]int{8, 8})
	a := NewMC(m)
	ids, err := a.Allocate(Request{Size: 6, ShapeW: 3, ShapeH: 2})
	if err != nil {
		t.Fatal(err)
	}
	// On an empty mesh the best candidate is a full 3x2 submesh: cost 0.
	if len(m.Components(ids)) != 1 {
		t.Errorf("MC shape allocation not contiguous: %v", ids)
	}
	xs, ys := bounds(m, ids)
	if xs != 3 || ys != 2 {
		t.Errorf("MC allocated %dx%d bounding box, want 3x2", xs, ys)
	}
}

func TestMC1x1CompactOnEmptyMesh(t *testing.T) {
	m := topo.New([]int{8, 8})
	a := NewMC1x1(m)
	ids, err := a.Allocate(Request{Size: 5})
	if err != nil {
		t.Fatal(err)
	}
	// 1x1 shell 0 plus first shell (8 nodes) covers 5: all within
	// distance 2 of the center, and contiguous on an empty mesh.
	if len(m.Components(ids)) != 1 {
		t.Errorf("MC1x1 allocation not contiguous: %v", ids)
	}
	if d := m.AvgPairwiseDist(ids); d > 2.0 {
		t.Errorf("MC1x1 allocation too dispersed: avg pairwise %g", d)
	}
}

func TestGenAlgPicksCompactSet(t *testing.T) {
	m := topo.New([]int{8, 8})
	a := NewGenAlg(m)
	ids, err := a.Allocate(Request{Size: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Gen-Alg is a (2-2/k)-approximation of the optimum; the optimal 9-set
	// is a 3x3 block with total pairwise distance 72. The heuristic's
	// center-plus-nearest sets come close but need not be optimal.
	got := m.TotalPairwiseDist(ids)
	if got < 72 {
		t.Errorf("Gen-Alg total pairwise distance %d beats the proven optimum 72", got)
	}
	if limit := int((2 - 2.0/9.0) * 72); got > limit {
		t.Errorf("Gen-Alg total pairwise distance = %d, want <= approximation bound %d", got, limit)
	}
	if len(m.Components(ids)) != 1 {
		t.Errorf("Gen-Alg allocation on an empty mesh should be contiguous: %v", ids)
	}
}

func TestGenAlgApproximationProperty(t *testing.T) {
	// Gen-Alg is a (2 - 2/k)-approximation for total pairwise distance.
	// Verify against brute force on a small mesh with random busy sets.
	m := topo.New([]int{4, 4})
	f := func(mask uint16, kRaw uint8) bool {
		a := NewGenAlg(m)
		var busy []int
		for i := 0; i < 16; i++ {
			if mask&(1<<uint(i)) != 0 {
				busy = append(busy, i)
			}
		}
		if len(busy) >= 14 {
			return true // not enough room to be interesting
		}
		if len(busy) > 0 {
			a.take(busy)
		}
		var free []int
		for id := 0; id < 16; id++ {
			if !a.busy[id] {
				free = append(free, id)
			}
		}
		k := int(kRaw)%min(len(free), 5) + 1
		if k < 2 {
			return true
		}
		ids, err := a.Allocate(Request{Size: k})
		if err != nil {
			return false
		}
		got := m.TotalPairwiseDist(ids)
		best := bruteBest(m, free, k)
		return float64(got) <= (2-2/float64(k))*float64(best)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bruteBest exhaustively finds the minimum total pairwise distance over
// all k-subsets of the given free nodes.
func bruteBest(m *topo.Grid, free []int, k int) int {
	best := -1
	var rec func(start int, chosen []int)
	rec = func(start int, chosen []int) {
		if len(chosen) == k {
			d := m.TotalPairwiseDist(chosen)
			if best == -1 || d < best {
				best = d
			}
			return
		}
		for i := start; i <= len(free)-(k-len(chosen)); i++ {
			rec(i+1, append(chosen, free[i]))
		}
	}
	rec(0, nil)
	return best
}

func bounds(m *topo.Grid, ids []int) (w, h int) {
	minX, minY := m.Dim(0), m.Dim(1)
	maxX, maxY := 0, 0
	for _, id := range ids {
		p := m.Coord(id)
		if p[0] < minX {
			minX = p[0]
		}
		if p[1] < minY {
			minY = p[1]
		}
		if p[0] > maxX {
			maxX = p[0]
		}
		if p[1] > maxY {
			maxY = p[1]
		}
	}
	return maxX - minX + 1, maxY - minY + 1
}

func TestRingEnumeration(t *testing.T) {
	m := topo.New([]int{9, 9})
	c := topo.XY(4, 4)
	for r := 0; r <= 8; r++ {
		ids := m.AppendRing(nil, c, r)
		seen := map[int]bool{}
		for _, id := range ids {
			if d := m.Dist(id, m.ID(c)); d != r {
				t.Fatalf("ring %d contains node at distance %d", r, d)
			}
			if seen[id] {
				t.Fatalf("ring %d repeats node %d", r, id)
			}
			seen[id] = true
		}
		if r >= 1 && r <= 4 && len(ids) != 4*r {
			t.Fatalf("interior ring %d has %d nodes, want %d", r, len(ids), 4*r)
		}
	}
	if got := m.AppendRing(nil, c, 0); len(got) != 1 || got[0] != m.ID(c) {
		t.Fatalf("ring 0 = %v", got)
	}
}

func TestRingsCoverMesh(t *testing.T) {
	m := topo.New([]int{5, 7})
	c := topo.XY(0, 6)
	seen := map[int]bool{}
	for r := 0; r <= 12; r++ {
		for _, id := range m.AppendRing(nil, c, r) {
			if seen[id] {
				t.Fatalf("node %d in two rings", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != m.Size() {
		t.Fatalf("rings cover %d nodes, want %d", len(seen), m.Size())
	}
}

func TestRandomAllocatorIsDeterministicPerSeed(t *testing.T) {
	m := topo.New([]int{8, 8})
	a1 := NewRandom(m, 42)
	a2 := NewRandom(m, 42)
	ids1, _ := a1.Allocate(Request{Size: 10})
	ids2, _ := a2.Allocate(Request{Size: 10})
	sort.Ints(ids1)
	sort.Ints(ids2)
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatal("same-seed random allocators disagree")
		}
	}
}

func TestMCPrefersCompactOverFragmented(t *testing.T) {
	// Occupy a column splitting the mesh, leaving a 3-wide and a 4-wide
	// region. MC1x1 asked for 9 should stay within one region rather
	// than straddling the wall when possible.
	m := topo.New([]int{8, 8})
	a := NewMC1x1(m)
	var wall []int
	for y := 0; y < 8; y++ {
		wall = append(wall, m.ID(topo.XY(3, y)))
	}
	a.take(wall)
	ids, err := a.Allocate(Request{Size: 9})
	if err != nil {
		t.Fatal(err)
	}
	left, right := 0, 0
	for _, id := range ids {
		if m.Coord(id)[0] < 3 {
			left++
		} else {
			right++
		}
	}
	if left != 0 && right != 0 {
		t.Errorf("MC1x1 straddled the wall: %d left, %d right", left, right)
	}
}
