package topo

import (
	"reflect"
	"sort"
	"testing"
)

// --- Reference implementations: literal transcriptions of the original
// 2-D mesh algorithms, kept here so the generic walkers are provably
// bit-compatible with the code they replaced.

type refMesh struct{ w, h int }

func (m refMesh) ring(c Point, r int) []int {
	var ids []int
	if r == 0 {
		if c[0] >= 0 && c[0] < m.w && c[1] >= 0 && c[1] < m.h {
			ids = append(ids, c[1]*m.w+c[0])
		}
		return ids
	}
	for dy := -r; dy <= r; dy++ {
		y := c[1] + dy
		if y < 0 || y >= m.h {
			continue
		}
		dx := r - abs(dy)
		if x := c[0] - dx; x >= 0 && x < m.w {
			ids = append(ids, y*m.w+x)
		}
		if dx > 0 {
			if x := c[0] + dx; x >= 0 && x < m.w {
				ids = append(ids, y*m.w+x)
			}
		}
	}
	return ids
}

func (m refMesh) shell(c Point, w, h, k int) []int {
	type box struct{ ox, oy, w, h int }
	centered := func(cw, ch int) box {
		return box{ox: c[0] - cw/2, oy: c[1] - ch/2, w: cw, h: ch}
	}
	contains := func(b box, x, y int) bool {
		return x >= b.ox && x < b.ox+b.w && y >= b.oy && y < b.oy+b.h
	}
	outer := centered(w+2*k, h+2*k)
	inner := box{}
	if k > 0 {
		inner = centered(w+2*(k-1), h+2*(k-1))
	}
	var ids []int
	for y := outer.oy; y < outer.oy+outer.h; y++ {
		for x := outer.ox; x < outer.ox+outer.w; x++ {
			if (k > 0 && contains(inner, x, y)) || x < 0 || x >= m.w || y < 0 || y >= m.h {
				continue
			}
			ids = append(ids, y*m.w+x)
		}
	}
	return ids
}

func TestIDCoordRoundTrip(t *testing.T) {
	for _, dims := range [][]int{{7}, {16, 22}, {8, 8, 8}, {3, 4, 5}, {2, 3, 4, 5}} {
		g := New(dims)
		for id := 0; id < g.Size(); id++ {
			p := g.Coord(id)
			if !g.Contains(p) {
				t.Fatalf("dims %v: Coord(%d) = %v not contained", dims, id, p)
			}
			if back := g.ID(p); back != id {
				t.Fatalf("dims %v: ID(Coord(%d)) = %d", dims, id, back)
			}
		}
	}
}

func TestIDMatches2DRowMajor(t *testing.T) {
	g := New([]int{16, 22})
	for y := 0; y < 22; y++ {
		for x := 0; x < 16; x++ {
			if got, want := g.ID(XY(x, y)), y*16+x; got != want {
				t.Fatalf("ID(%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestID3DMatchesCubeOrder(t *testing.T) {
	// The cube package always used x-fastest ids: (z*h+y)*w + x.
	g := New([]int{4, 5, 6})
	for z := 0; z < 6; z++ {
		for y := 0; y < 5; y++ {
			for x := 0; x < 4; x++ {
				if got, want := g.ID(Point{x, y, z}), (z*5+y)*4+x; got != want {
					t.Fatalf("ID(%d,%d,%d) = %d, want %d", x, y, z, got, want)
				}
			}
		}
	}
}

func TestDistTorus(t *testing.T) {
	g := NewTorus([]int{8, 8, 8})
	a, b := g.ID(Point{0, 0, 0}), g.ID(Point{7, 7, 7})
	if d := g.Dist(a, b); d != 3 {
		t.Fatalf("torus corner distance = %d, want 3", d)
	}
	p := New([]int{8, 8, 8})
	if d := p.Dist(a, b); d != 21 {
		t.Fatalf("mesh corner distance = %d, want 21", d)
	}
}

func TestRouteProperties(t *testing.T) {
	for _, tc := range []struct {
		dims  []int
		torus bool
	}{
		{[]int{16, 22}, false},
		{[]int{16, 16}, true},
		{[]int{8, 8, 8}, false},
		{[]int{4, 6, 5}, true},
	} {
		var g *Grid
		if tc.torus {
			g = NewTorus(tc.dims)
		} else {
			g = New(tc.dims)
		}
		for _, pair := range [][2]int{{0, g.Size() - 1}, {g.Size() / 2, 3}, {5, 5}, {1, g.Size() / 3}} {
			src, dst := pair[0], pair[1]
			for _, rev := range []bool{false, true} {
				var route []Link
				if rev {
					route = g.AppendRouteRev(nil, src, dst)
				} else {
					route = g.Route(src, dst)
				}
				if len(route) != g.Dist(src, dst) {
					t.Fatalf("dims %v torus %v: route %d->%d has %d links, want %d",
						tc.dims, tc.torus, src, dst, len(route), g.Dist(src, dst))
				}
				// Walk the route link by link and confirm it lands on dst.
				cur := src
				for _, l := range route {
					if l.From != cur {
						t.Fatalf("dims %v: route %d->%d link from %d, at %d", tc.dims, src, dst, l.From, cur)
					}
					nb, ok := g.Neighbor(cur, l.Dir)
					if !ok {
						t.Fatalf("dims %v: route %d->%d walks off the grid", tc.dims, src, dst)
					}
					cur = nb
				}
				if cur != dst {
					t.Fatalf("dims %v torus %v rev %v: route %d->%d ends at %d", tc.dims, tc.torus, rev, src, dst, cur)
				}
			}
		}
	}
}

func TestRouteMatches2DXYOrder(t *testing.T) {
	// Ascending dimension order must resolve x before y, as the 2-D
	// router always did.
	g := New([]int{16, 22})
	route := g.Route(g.ID(XY(2, 3)), g.ID(XY(5, 7)))
	want := []Link{
		{From: g.ID(XY(2, 3)), Dir: 0}, {From: g.ID(XY(3, 3)), Dir: 0}, {From: g.ID(XY(4, 3)), Dir: 0},
		{From: g.ID(XY(5, 3)), Dir: 2}, {From: g.ID(XY(5, 4)), Dir: 2}, {From: g.ID(XY(5, 5)), Dir: 2},
		{From: g.ID(XY(5, 6)), Dir: 2},
	}
	if !reflect.DeepEqual(route, want) {
		t.Fatalf("route = %v, want %v", route, want)
	}
}

func TestShellMatches2DReference(t *testing.T) {
	g := New([]int{16, 22})
	ref := refMesh{w: 16, h: 22}
	for _, c := range []Point{XY(8, 11), XY(0, 0), XY(15, 21), XY(3, 20)} {
		for _, wh := range [][2]int{{1, 1}, {4, 4}, {5, 3}} {
			for k := 0; k <= 8; k++ {
				ext := XY(wh[0], wh[1])
				got := shellIDs(g, c, ext, k)
				want := ref.shell(c, wh[0], wh[1], k)
				if !sliceEq(got, want) {
					t.Fatalf("shell c=%v ext=%v k=%d: got %v want %v", c, ext, k, got, want)
				}
			}
		}
	}
}

func TestShell3DSurface(t *testing.T) {
	g := New([]int{8, 8, 8})
	c := Point{4, 4, 4}
	// Shell 0 of a 2x2x2 box is the box; shell 1 is the surface of the
	// 4x4x4 box: 64 - 8 = 56 nodes.
	if n := len(shellIDs(g, c, Point{2, 2, 2}, 0)); n != 8 {
		t.Fatalf("shell 0 has %d nodes, want 8", n)
	}
	if n := len(shellIDs(g, c, Point{2, 2, 2}, 1)); n != 56 {
		t.Fatalf("shell 1 has %d nodes, want 56", n)
	}
	// Shells partition the grid: every node appears in exactly one shell.
	seen := make([]int, g.Size())
	for k := 0; k <= g.MaxShells(); k++ {
		for _, id := range shellIDs(g, c, Point{2, 2, 2}, k) {
			seen[id]++
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("node %d appears in %d shells", id, n)
		}
	}
}

func TestRingMatches2DReference(t *testing.T) {
	g := New([]int{16, 22})
	ref := refMesh{w: 16, h: 22}
	for _, c := range []Point{XY(8, 11), XY(0, 0), XY(15, 0), XY(2, 21)} {
		for r := 0; r <= 40; r++ {
			got := g.AppendRing(nil, c, r)
			want := ref.ring(c, r)
			if !sliceEq(got, want) {
				t.Fatalf("ring c=%v r=%d: got %v want %v", c, r, got, want)
			}
		}
	}
}

func TestRing3D(t *testing.T) {
	g := New([]int{8, 8, 8})
	c := Point{4, 4, 4}
	total := 0
	for r := 0; r <= 24; r++ {
		ring := g.AppendRing(nil, c, r)
		for _, id := range ring {
			if d := g.Dist(id, g.ID(c)); d != r {
				t.Fatalf("ring %d contains node at distance %d", r, d)
			}
		}
		// Row-major order within the ring.
		for i := 1; i < len(ring); i++ {
			if ring[i] <= ring[i-1] {
				t.Fatalf("ring %d not in row-major order: %v", r, ring)
			}
		}
		total += len(ring)
	}
	if total != g.Size() {
		t.Fatalf("rings cover %d nodes, want %d", total, g.Size())
	}
}

func TestLinkIndexRoundTrip(t *testing.T) {
	for _, dims := range [][]int{{16, 22}, {6, 9}, {8, 8, 8}} {
		g := New(dims)
		seen := make([]bool, g.NumLinks())
		for id := 0; id < g.Size(); id++ {
			for d := Dir(0); int(d) < g.NumDirs(); d++ {
				l := Link{From: id, Dir: d}
				idx := g.LinkIndex(l)
				if idx < 0 || idx >= g.NumLinks() || seen[idx] {
					t.Fatalf("dims %v: bad or duplicate link index %d", dims, idx)
				}
				seen[idx] = true
				if back := g.LinkAt(idx); back != l {
					t.Fatalf("dims %v: LinkAt(LinkIndex(%v)) = %v", dims, l, back)
				}
			}
		}
	}
}

func TestNeighborTorusWrap(t *testing.T) {
	g := NewTorus([]int{4, 4, 4})
	nb, ok := g.Neighbor(g.ID(Point{0, 0, 0}), Dir(5)) // -z
	if !ok || nb != g.ID(Point{0, 0, 3}) {
		t.Fatalf("torus -z neighbor of origin = %d,%v", nb, ok)
	}
	p := New([]int{4, 4, 4})
	if _, ok := p.Neighbor(p.ID(Point{0, 0, 0}), Dir(5)); ok {
		t.Fatal("plain grid -z neighbor of origin should not exist")
	}
}

func TestComponents3D(t *testing.T) {
	g := New([]int{4, 4, 4})
	// Two separated 2x1x1 bars.
	ids := []int{
		g.ID(Point{0, 0, 0}), g.ID(Point{1, 0, 0}),
		g.ID(Point{3, 3, 3}), g.ID(Point{3, 2, 3}),
	}
	comps := g.Components(ids)
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	// A z-column is contiguous only through the z links.
	col := []int{g.ID(Point{2, 2, 0}), g.ID(Point{2, 2, 1}), g.ID(Point{2, 2, 2})}
	if len(g.Components(col)) != 1 {
		t.Fatal("z column not contiguous")
	}
}

func TestDirString(t *testing.T) {
	want := []string{"+x", "-x", "+y", "-y", "+z", "-z", "+w", "-w"}
	for d, s := range want {
		if got := Dir(d).String(); got != s {
			t.Fatalf("Dir(%d).String() = %q, want %q", d, got, s)
		}
	}
}

func TestZeroAllocWalkers(t *testing.T) {
	g := New([]int{8, 8, 8})
	linkBuf := make([]Link, 0, 32)
	idBuf := make([]int, 0, g.Size())
	c := Point{4, 4, 4}
	n := testing.AllocsPerRun(200, func() {
		linkBuf = g.AppendRoute(linkBuf[:0], 0, g.Size()-1)
		linkBuf = g.AppendRouteRev(linkBuf[:0], g.Size()-1, 7)
		idBuf = g.AppendRing(idBuf[:0], c, 5)
		g.ShellEach(c, Point{2, 2, 2}, 3, func(int) bool { return true })
	})
	if n != 0 {
		t.Fatalf("generic walkers allocate %.1f objects/run, want 0", n)
	}
}

// shellIDs collects the ids ShellEach visits in shell k around the ext
// box centered on c.
func shellIDs(g *Grid, c, ext Point, k int) []int {
	var ids []int
	g.ShellEach(c, ext, k, func(id int) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

func sliceEq(a, b []int) bool {
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

func TestComponentsOrdering(t *testing.T) {
	g := New([]int{16, 22})
	ids := []int{5, 4, 100, 101, 37, 21} // 5,4,21,37 form an L (4-5 adj, 21 below 5, 37 below 21)
	comps := g.Components(ids)
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	if !sort.IntsAreSorted(comps[0]) || !sort.IntsAreSorted(comps[1]) {
		t.Fatal("components not sorted")
	}
	if comps[0][0] > comps[1][0] {
		t.Fatal("components not ordered by smallest id")
	}
}

// TestGrownBoundsMatchesShellWalkClipping pins the counting-side clip
// arithmetic (GrownBounds/BoxVolume) to the walking side: the volume of
// shell k's clipped outer box must equal the nodes ShellEach visits
// across shells 0..k, for centers and extents all over the grid,
// including off-edge clipping.
func TestGrownBoundsMatchesShellWalkClipping(t *testing.T) {
	for _, dims := range [][]int{{7, 5}, {6, 4, 5}} {
		g := New(dims)
		for id := 0; id < g.Size(); id += 3 {
			c := g.Coord(id)
			var ext Point
			for i := 0; i < MaxDims; i++ {
				ext[i] = 1
			}
			for i := 0; i < g.ND(); i++ {
				ext[i] = 1 + (id+i)%3
			}
			walked := 0
			for k := 0; k <= g.MaxShells(); k++ {
				g.ShellEach(c, ext, k, func(int) bool { walked++; return true })
				lo, hi, ok := g.GrownBounds(c, ext, k)
				if !ok {
					t.Fatalf("dims %v c %v k %d: GrownBounds empty for on-grid center", dims, c, k)
				}
				if got := BoxVolume(lo, hi); got != walked {
					t.Fatalf("dims %v c %v ext %v k %d: BoxVolume %d, walked cumulative %d",
						dims, c, ext, k, got, walked)
				}
			}
		}
	}
}

func TestClipInterval(t *testing.T) {
	g := New([]int{10, 4})
	tests := []struct {
		axis, lo, hi   int
		wantLo, wantHi int
	}{
		{0, 2, 7, 2, 8},
		{0, -3, 100, 0, 10},
		{1, -1, 1, 0, 2},
		{1, 5, 9, 5, 4}, // off-grid: empty, signalled by chi <= clo
		{0, 9, 9, 9, 10},
	}
	for _, tc := range tests {
		clo, chi := g.ClipInterval(tc.axis, tc.lo, tc.hi)
		if clo != tc.wantLo || chi != tc.wantHi {
			t.Errorf("ClipInterval(%d, %d, %d) = [%d, %d), want [%d, %d)",
				tc.axis, tc.lo, tc.hi, clo, chi, tc.wantLo, tc.wantHi)
		}
	}
}
