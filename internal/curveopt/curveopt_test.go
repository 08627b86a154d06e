package curveopt

import (
	"reflect"
	"testing"
	"testing/quick"

	"meshalloc/internal/curve"
	"meshalloc/internal/topo"
)

// cost returns the linear-arrangement cost of an ordering: the sum over
// edges of |rank(u) - rank(v)|. Lower is better; a Hamiltonian-path-like
// ordering of a path graph achieves the minimum.
func cost(g *Graph, order []int) int {
	rank := make([]int, g.N)
	for pos, id := range order {
		rank[id] = pos
	}
	total := 0
	for u := 0; u < g.N; u++ {
		ru := rank[u]
		for _, v := range g.adj[u] {
			if u < v {
				d := ru - rank[v]
				if d < 0 {
					d = -d
				}
				total += d
			}
		}
	}
	return total
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate ignored
	g.AddEdge(1, 1) // self ignored
	g.AddEdge(1, 2)
	g.AddEdge(-1, 2) // out of range ignored
	if len(g.adj[1]) != 2 {
		t.Fatalf("node 1 neighbours = %v", g.adj[1])
	}
	if len(g.adj[0]) != 1 {
		t.Fatalf("node 0 neighbours = %v", g.adj[0])
	}
}

func TestNewGraphPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGraph(0) should panic")
		}
	}()
	NewGraph(0)
}

func TestMeshGraphDegrees(t *testing.T) {
	m := topo.New([]int{4, 4})
	g := MeshGraph(m)
	// Corner nodes degree 2, edges 3, interior 4.
	wantDeg := func(id int) int {
		p := m.Coord(id)
		d := 4
		if p[0] == 0 || p[0] == 3 {
			d--
		}
		if p[1] == 0 || p[1] == 3 {
			d--
		}
		return d
	}
	for id := 0; id < 16; id++ {
		if got := len(g.adj[id]); got != wantDeg(id) {
			t.Fatalf("node %d degree %d, want %d", id, got, wantDeg(id))
		}
	}
}

func TestCostOfKnownOrderings(t *testing.T) {
	// Path graph 0-1-2-3: identity ordering cost 3 (each edge spans 1).
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	if c := cost(g, []int{0, 1, 2, 3}); c != 3 {
		t.Fatalf("path identity cost = %d", c)
	}
	// Worst-ish ordering.
	if c := cost(g, []int{0, 2, 1, 3}); c <= 3 {
		t.Fatalf("shuffled path cost = %d, should exceed 3", c)
	}
}

func TestOptimizeReturnsPermutation(t *testing.T) {
	m := topo.New([]int{6, 7})
	g := MeshGraph(m)
	order := Optimize(g, Options{Iters: 2000, Seed: 1})
	seen := make([]bool, g.N)
	for _, id := range order {
		if id < 0 || id >= g.N || seen[id] {
			t.Fatalf("not a permutation: %v", order)
		}
		seen[id] = true
	}
	if len(order) != g.N {
		t.Fatalf("length %d", len(order))
	}
}

func TestOptimizeImprovesOnSeedOrder(t *testing.T) {
	m := topo.New([]int{8, 8})
	g := MeshGraph(m)
	seedCost := cost(g, bfsOrder(g))
	opt := Optimize(g, Options{Iters: 30000, Seed: 1})
	optCost := cost(g, opt)
	if optCost > seedCost {
		t.Fatalf("optimizer worsened cost: %d -> %d", seedCost, optCost)
	}
	// Row-major on an n x n mesh costs n*(n-1) (rows) + n*n*(n-1)
	// (column edges span n each): 8*7 + 64*7*... compute directly.
	rowMajor := curve.RowMajor{}.Order(8, 8)
	rmCost := cost(g, rowMajor)
	if optCost > rmCost {
		t.Fatalf("optimized cost %d worse than row-major %d", optCost, rmCost)
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	g := MeshGraph(topo.New([]int{5, 5}))
	a := Optimize(g, Options{Iters: 5000, Seed: 7})
	b := Optimize(g, Options{Iters: 5000, Seed: 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed optimization diverged")
		}
	}
}

func TestOptimizeDisconnectedGraph(t *testing.T) {
	g := NewGraph(6)
	g.AddEdge(0, 1)
	g.AddEdge(3, 4) // nodes 2 and 5 isolated
	order := Optimize(g, Options{Iters: 500, Seed: 1})
	seen := map[int]bool{}
	for _, id := range order {
		seen[id] = true
	}
	if len(seen) != 6 {
		t.Fatalf("disconnected graph ordering incomplete: %v", order)
	}
}

func TestMeshCurveInterface(t *testing.T) {
	var c curve.Curve = MeshCurve{Iters: 1000, Seed: 1}
	if c.Name() != "optcurve" {
		t.Fatalf("name = %q", c.Name())
	}
	order := c.Order(4, 5)
	if len(order) != 20 {
		t.Fatalf("order length %d", len(order))
	}
	// Must be a valid ordering for the Paging machinery.
	ranks := curve.Ranks(order) // panics if not a permutation
	_ = ranks
	want := []int{0, 1, 4, 5, 2, 6, 3, 7, 11, 10, 9, 8, 15, 14, 13, 12, 19, 18, 17, 16}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestCostInvariantUnderRelabeling(t *testing.T) {
	// Property: reversing an ordering preserves its cost.
	g := MeshGraph(topo.New([]int{4, 4}))
	f := func(seed int64) bool {
		order := Optimize(g, Options{Iters: 100, Seed: seed})
		rev := make([]int, len(order))
		for i, id := range order {
			rev[len(order)-1-i] = id
		}
		return cost(g, order) == cost(g, rev)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
