package topo

// Checks on 2-D grids, the shape of the paper's meshes: coordinates,
// x-y and y-x routes, neighbours at the edges, shells, components and
// torus wraparound.

import (
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) should panic", dims)
				}
			}()
			New(dims[:])
		}()
	}
}

// TestManhattan: on a mesh, Dist is the Manhattan distance.
func TestManhattan(t *testing.T) {
	g := New([]int{8, 8})
	tests := []struct {
		a, b Point
		want int
	}{
		{XY(0, 0), XY(0, 0), 0},
		{XY(0, 0), XY(3, 4), 7},
		{XY(3, 4), XY(0, 0), 7},
		{XY(5, 1), XY(1, 5), 8},
	}
	for _, tc := range tests {
		if got := g.Dist(g.ID(tc.a), g.ID(tc.b)); got != tc.want {
			t.Errorf("Dist(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestRouteIsXYOrdered(t *testing.T) {
	g := New([]int{8, 8})
	links := g.Route(g.ID(XY(1, 1)), g.ID(XY(5, 3)))
	if len(links) != 6 {
		t.Fatalf("route length %d, want 6", len(links))
	}
	// First all x hops, then all y hops.
	sawY := false
	for _, l := range links {
		isY := l.Dir.Axis() == 1
		if sawY && !isY {
			t.Fatalf("x hop after y hop in %v", links)
		}
		if isY {
			sawY = true
		}
	}
}

func TestRouteEndsAtDestination(t *testing.T) {
	g := New([]int{7, 5})
	f := func(a, b uint8) bool {
		src := int(a) % g.Size()
		dst := int(b) % g.Size()
		links := g.Route(src, dst)
		if len(links) != g.Dist(src, dst) {
			return false
		}
		cur := src
		for _, l := range links {
			if l.From != cur {
				return false
			}
			next, ok := g.Neighbor(cur, l.Dir)
			if !ok {
				return false
			}
			cur = next
		}
		return cur == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteYXIsYOrdered(t *testing.T) {
	g := New([]int{8, 8})
	links := g.AppendRouteRev(nil, g.ID(XY(1, 1)), g.ID(XY(5, 3)))
	if len(links) != 6 {
		t.Fatalf("route length %d, want 6", len(links))
	}
	// All y hops first, then x hops.
	sawX := false
	cur := g.ID(XY(1, 1))
	for _, l := range links {
		if l.From != cur {
			t.Fatalf("route not connected at %v", l)
		}
		isX := l.Dir.Axis() == 0
		if sawX && !isX {
			t.Fatalf("y hop after x hop in %v", links)
		}
		if isX {
			sawX = true
		}
		next, ok := g.Neighbor(cur, l.Dir)
		if !ok {
			t.Fatal("route leaves mesh")
		}
		cur = next
	}
	if cur != g.ID(XY(5, 3)) {
		t.Fatal("route does not reach destination")
	}
}

func TestRouteSelfIsEmpty(t *testing.T) {
	g := New([]int{4, 4})
	if links := g.Route(5, 5); len(links) != 0 {
		t.Fatalf("self route has %d links, want 0", len(links))
	}
}

func TestNeighborEdges(t *testing.T) {
	g := New([]int{3, 3})
	// Corner node 0 = (0,0) has only +x and +y neighbours.
	if _, ok := g.Neighbor(0, Dir(1)); ok {
		t.Error("corner should have no -x neighbour")
	}
	if _, ok := g.Neighbor(0, Dir(3)); ok {
		t.Error("corner should have no -y neighbour")
	}
	if nb, ok := g.Neighbor(0, Dir(0)); !ok || nb != 1 {
		t.Errorf("+x neighbour of 0 = %d,%v, want 1,true", nb, ok)
	}
	if nb, ok := g.Neighbor(0, Dir(2)); !ok || nb != 3 {
		t.Errorf("+y neighbour of 0 = %d,%v, want 3,true", nb, ok)
	}
}

func TestAvgPairwiseDist(t *testing.T) {
	g := New([]int{4, 4})
	// 2x2 block at origin: ids 0,1,4,5.
	got := g.AvgPairwiseDist([]int{0, 1, 4, 5})
	// Distances: 0-1:1 0-4:1 0-5:2 1-4:2 1-5:1 4-5:1 => total 8 / 6 pairs.
	want := 8.0 / 6.0
	if got != want {
		t.Fatalf("AvgPairwiseDist = %g, want %g", got, want)
	}
	if g.AvgPairwiseDist([]int{3}) != 0 {
		t.Fatal("singleton should have zero avg distance")
	}
	if g.TotalPairwiseDist([]int{0, 1, 4, 5}) != 8 {
		t.Fatal("TotalPairwiseDist mismatch")
	}
}

func TestCenteredSubmeshAndShells(t *testing.T) {
	g := New([]int{9, 9})
	c := XY(4, 4)
	// Shell 0 of a 3x1 request is the 3x1 submesh centered on c.
	s0 := shellIDs(g, c, XY(3, 1), 0)
	if len(s0) != 3 {
		t.Fatalf("shell 0 size %d, want 3", len(s0))
	}
	// Shell 1 is the ring around the 3x1: a 5x3 minus the 3x1 = 12 nodes.
	s1 := shellIDs(g, c, XY(3, 1), 1)
	if len(s1) != 12 {
		t.Fatalf("shell 1 size %d, want 12", len(s1))
	}
	// Shells partition: no overlap between shells 0..3.
	seen := map[int]bool{}
	for k := 0; k <= 3; k++ {
		for _, id := range shellIDs(g, c, XY(3, 1), k) {
			if seen[id] {
				t.Fatalf("node %d in two shells", id)
			}
			seen[id] = true
		}
	}
}

func TestShellsCoverMesh(t *testing.T) {
	g := New([]int{5, 7})
	c := XY(0, 0) // worst-case corner center
	seen := map[int]bool{}
	for k := 0; k <= g.MaxShells(); k++ {
		for _, id := range shellIDs(g, c, XY(1, 1), k) {
			seen[id] = true
		}
	}
	if len(seen) != g.Size() {
		t.Fatalf("shells cover %d nodes, want %d", len(seen), g.Size())
	}
}

func TestShellClippedAtEdge(t *testing.T) {
	g := New([]int{4, 4})
	s1 := shellIDs(g, XY(0, 0), XY(1, 1), 1)
	// Ring around (0,0) clipped to the mesh: (1,0),(0,1),(1,1).
	if len(s1) != 3 {
		t.Fatalf("clipped shell has %d nodes, want 3", len(s1))
	}
}

func TestComponents(t *testing.T) {
	g := New([]int{4, 4})
	tests := []struct {
		name string
		ids  []int
		want int
	}{
		{"empty", nil, 0},
		{"single", []int{5}, 1},
		{"row", []int{0, 1, 2, 3}, 1},
		{"block", []int{0, 1, 4, 5}, 1},
		{"two corners", []int{0, 15}, 2},
		{"diagonal only", []int{0, 5, 10, 15}, 4},
		{"L-shape", []int{0, 4, 8, 9, 10}, 1},
		{"split", []int{0, 1, 3, 7}, 2},
	}
	for _, tc := range tests {
		comps := g.Components(tc.ids)
		if len(comps) != tc.want {
			t.Errorf("%s: %d components, want %d", tc.name, len(comps), tc.want)
		}
		total := 0
		for _, c := range comps {
			total += len(c)
		}
		if total != len(tc.ids) {
			t.Errorf("%s: components cover %d ids, want %d", tc.name, total, len(tc.ids))
		}
	}
}

func TestComponentsPartitionProperty(t *testing.T) {
	g := New([]int{6, 6})
	f := func(mask uint64) bool {
		var ids []int
		for i := 0; i < 36; i++ {
			if mask&(1<<uint(i)) != 0 {
				ids = append(ids, i)
			}
		}
		comps := g.Components(ids)
		seen := map[int]bool{}
		for _, c := range comps {
			for _, id := range c {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return len(seen) == len(ids)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTorusDist(t *testing.T) {
	g := NewTorus([]int{8, 6})
	if !g.Torus() {
		t.Fatal("Torus() false")
	}
	// (0,0) to (7,0): 1 hop the short way around.
	if d := g.Dist(g.ID(XY(0, 0)), g.ID(XY(7, 0))); d != 1 {
		t.Fatalf("wrap x distance = %d, want 1", d)
	}
	// (0,0) to (0,5): 1 hop around y.
	if d := g.Dist(g.ID(XY(0, 0)), g.ID(XY(0, 5))); d != 1 {
		t.Fatalf("wrap y distance = %d, want 1", d)
	}
	// (0,0) to (4,3): 4 + 3 either way.
	if d := g.Dist(g.ID(XY(0, 0)), g.ID(XY(4, 3))); d != 7 {
		t.Fatalf("half-way distance = %d, want 7", d)
	}
	// A plain mesh disagrees.
	p := New([]int{8, 6})
	if d := p.Dist(p.ID(XY(0, 0)), p.ID(XY(7, 0))); d != 7 {
		t.Fatalf("plain mesh distance = %d, want 7", d)
	}
}

func TestTorusNeighborWraps(t *testing.T) {
	g := NewTorus([]int{4, 4})
	nb, ok := g.Neighbor(g.ID(XY(0, 0)), Dir(1)) // -x
	if !ok || nb != g.ID(XY(3, 0)) {
		t.Fatalf("-x wrap = %d, %v", nb, ok)
	}
	nb, ok = g.Neighbor(g.ID(XY(2, 3)), Dir(2)) // +y
	if !ok || nb != g.ID(XY(2, 0)) {
		t.Fatalf("+y wrap = %d, %v", nb, ok)
	}
}

func TestTorusRouteTakesShortWay(t *testing.T) {
	g := NewTorus([]int{8, 8})
	src, dst := g.ID(XY(0, 0)), g.ID(XY(7, 7))
	links := g.Route(src, dst)
	if len(links) != 2 {
		t.Fatalf("torus route length %d, want 2 (one wrap per axis)", len(links))
	}
	// Route is connected and ends at dst.
	cur := src
	for _, l := range links {
		if l.From != cur {
			t.Fatalf("disconnected route %v", links)
		}
		next, ok := g.Neighbor(cur, l.Dir)
		if !ok {
			t.Fatal("route left mesh")
		}
		cur = next
	}
	if cur != dst {
		t.Fatalf("route ends at %d, want %d", cur, dst)
	}
}

func TestTorusRoutePropertyMatchesDist(t *testing.T) {
	g := NewTorus([]int{7, 5})
	for src := 0; src < g.Size(); src += 3 {
		for dst := 0; dst < g.Size(); dst += 2 {
			if got := len(g.Route(src, dst)); got != g.Dist(src, dst) {
				t.Fatalf("route %d->%d has %d links, dist %d", src, dst, got, g.Dist(src, dst))
			}
		}
	}
}

func TestSubmeshNodesClipped(t *testing.T) {
	g := New([]int{4, 4})
	b := Box{Origin: XY(3, 3), Ext: Point{2, 2, 1, 1}}
	nodes := g.Nodes(b)
	if len(nodes) != 1 || nodes[0] != 15 {
		t.Fatalf("clipped submesh nodes = %v, want [15]", nodes)
	}
}
