// Package curveopt searches for processor orderings with good locality
// on arbitrary machine graphs. The paper (Section 2.1) notes that "for
// non-mesh machines, Leung et al. developed an integer program to find
// curves with locality properties"; this package realizes that idea as a
// deterministic local search for the minimum-linear-arrangement
// objective — the sum over machine-graph edges of the rank distance
// between their endpoints — which is precisely the locality a page
// ordering needs: mesh neighbours close in rank.
//
// Exact ILP solving is NP-hard and needs an external solver; the local
// search reaches the same qualitative goal (orderings competitive with
// hand-designed space-filling curves) with stdlib-only code, and the
// optimizer applies unchanged to non-mesh topologies.
package curveopt

import (
	"fmt"

	"meshalloc/internal/stats"
	"meshalloc/internal/topo"
)

// Graph is an undirected machine topology over nodes 0..N-1.
type Graph struct {
	N   int
	adj [][]int
}

// NewGraph returns an empty graph over n nodes. It panics on
// non-positive n: topology is static configuration.
func NewGraph(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("curveopt: invalid node count %d", n))
	}
	return &Graph{N: n, adj: make([][]int, n)}
}

// AddEdge records an undirected edge; duplicate and self edges are
// ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 || u >= g.N || v >= g.N {
		return
	}
	for _, w := range g.adj[u] {
		if w == v {
			return
		}
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// MeshGraph builds the machine graph of a grid. Node by node it adds the
// edge toward +x, then toward +y (and on up the axes); Optimize's
// breadth-first start follows that adjacency order.
func MeshGraph(m *topo.Grid) *Graph {
	g := NewGraph(m.Size())
	for id := 0; id < m.Size(); id++ {
		for d := topo.Dir(0); int(d) < m.NumDirs(); d += 2 {
			if nb, ok := m.Neighbor(id, d); ok {
				g.AddEdge(id, nb)
			}
		}
	}
	return g
}

// Options tunes the search.
type Options struct {
	// Iters is the number of local-search proposals; 0 means 20000.
	Iters int
	// Seed drives proposal sampling.
	Seed int64
}

// Optimize returns an ordering of g's nodes with low linear-arrangement
// cost: a BFS seed ordering improved by first-improvement swap and
// segment-reversal moves. The result is a permutation of [0, g.N) and is
// deterministic in (g, opts).
func Optimize(g *Graph, opts Options) []int {
	if opts.Iters == 0 {
		opts.Iters = 20000
	}
	rng := stats.NewRNG(opts.Seed)
	order := bfsOrder(g)
	rank := make([]int, g.N)
	for pos, id := range order {
		rank[id] = pos
	}

	// nodeCost returns the cost contribution of node id's edges.
	nodeCost := func(id int) int {
		total := 0
		r := rank[id]
		for _, v := range g.adj[id] {
			d := r - rank[v]
			if d < 0 {
				d = -d
			}
			total += d
		}
		return total
	}

	for it := 0; it < opts.Iters; it++ {
		if rng.Float64() < 0.7 {
			// Swap two positions.
			i := rng.Intn(g.N)
			j := rng.Intn(g.N)
			if i == j {
				continue
			}
			a, b := order[i], order[j]
			before := nodeCost(a) + nodeCost(b)
			order[i], order[j] = b, a
			rank[a], rank[b] = rank[b], rank[a]
			after := nodeCost(a) + nodeCost(b)
			// Adjacent-in-graph pairs double-count their shared edge
			// identically before and after, so the comparison stands.
			if after > before {
				order[i], order[j] = a, b
				rank[a], rank[b] = rank[b], rank[a]
			}
		} else {
			// Reverse a short segment.
			i := rng.Intn(g.N)
			l := 2 + rng.Intn(6)
			j := i + l
			if j >= g.N {
				continue
			}
			before := segmentCost(g, rank, order[i:j+1])
			reverse(order[i : j+1])
			for p := i; p <= j; p++ {
				rank[order[p]] = p
			}
			after := segmentCost(g, rank, order[i:j+1])
			if after > before {
				reverse(order[i : j+1])
				for p := i; p <= j; p++ {
					rank[order[p]] = p
				}
			}
		}
	}
	return order
}

// segmentCost sums the edge costs incident to the segment's nodes.
// Edges internal to the segment are counted twice, consistently across
// the before/after comparison.
func segmentCost(g *Graph, rank []int, seg []int) int {
	total := 0
	for _, u := range seg {
		ru := rank[u]
		for _, v := range g.adj[u] {
			d := ru - rank[v]
			if d < 0 {
				d = -d
			}
			total += d
		}
	}
	return total
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// bfsOrder seeds the search with a breadth-first ordering from node 0,
// appending any disconnected remainder in id order.
func bfsOrder(g *Graph) []int {
	order := make([]int, 0, g.N)
	seen := make([]bool, g.N)
	for start := 0; start < g.N; start++ {
		if seen[start] {
			continue
		}
		seen[start] = true
		order = append(order, start)
		for qi := len(order) - 1; qi < len(order); qi++ {
			for _, v := range g.adj[order[qi]] {
				if !seen[v] {
					seen[v] = true
					order = append(order, v)
				}
			}
		}
	}
	return order
}

// MeshCurve adapts the optimizer to the curve.Curve interface so the
// Paging allocators can run on a searched ordering ("optcurve" spec).
type MeshCurve struct {
	// Iters and Seed mirror Options; zero values use the defaults.
	Iters int
	Seed  int64
}

// Name implements curve.Curve.
func (MeshCurve) Name() string { return "optcurve" }

// Order implements curve.Curve.
func (c MeshCurve) Order(w, h int) []int {
	g := MeshGraph(topo.New([]int{w, h}))
	return Optimize(g, Options{Iters: c.Iters, Seed: c.Seed})
}
