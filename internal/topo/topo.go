// Package topo is the dimension-generic topology core of the simulator:
// n-dimensional grid machines (meshes and tori), dense node ids, directed
// links, the box shells used by MC-style allocators, Manhattan rings, and
// rectilinear connectivity. Routes are walked by the network model
// (netsim), over the coordinate table and link indices defined here.
//
// The paper's meshes are 2-D grids (axis 0 is x, axis 1 is y), and the
// native 3-D experiments instantiate it at three dimensions. Every walker keeps the zero-allocation caller-buffer /
// index-callback API shape established for the 2-D hot paths: Append*
// variants extend a caller-owned slice, *Each variants call back per node,
// and nothing on a steady-state path allocates.
//
// Nodes are identified by dense integer ids with axis 0 fastest:
// id = sum_i p[i] * stride[i] with stride[0] = 1 and
// stride[i] = stride[i-1] * dim[i-1] — row-major order in 2-D, the
// x-fastest order the cube package always used in 3-D.
package topo

import (
	"fmt"
	"sort"
)

// MaxDims is the compile-time cap on grid dimensionality. Keeping it a
// small constant lets Point be a value type, which is what keeps the
// shell/ring hot paths allocation-free.
const MaxDims = 4

// Point is a node coordinate. Axes at or above the grid's dimensionality
// are always zero, so component-wise operations may safely run over all
// MaxDims entries.
type Point [MaxDims]int

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// XY builds a 2-D point.
func XY(x, y int) Point { return Point{x, y} }

// Dir identifies a directed link direction: axis Dir/2, toward increasing
// coordinates when Dir is even and decreasing when odd. The 2-D encoding
// (+x, -x, +y, -y) = (0, 1, 2, 3) is preserved exactly.
type Dir int

// Axis returns the axis the direction moves along.
func (d Dir) Axis() int { return int(d) / 2 }

// Positive reports whether the direction increases the coordinate.
func (d Dir) Positive() bool { return d%2 == 0 }

// String implements fmt.Stringer.
func (d Dir) String() string {
	const axes = "xyzw"
	a := d.Axis()
	if d < 0 || a >= len(axes) {
		return fmt.Sprintf("Dir(%d)", int(d))
	}
	sign := "+"
	if !d.Positive() {
		sign = "-"
	}
	return sign + string(axes[a])
}

// Link is a directed channel from node From to an adjacent node. Two
// adjacent nodes are joined by two links, one in each direction, as in a
// full-duplex machine.
type Link struct {
	From int
	Dir  Dir
}

// Grid is an n-dimensional grid of processors, optionally with torus
// wraparound links. The zero value is not usable; construct with New or
// NewTorus.
type Grid struct {
	nd     int
	dim    [MaxDims]int
	stride [MaxDims]int
	// lstride is stride scaled to dense link indices: one hop along an
	// axis moves a link index by lstride (see LinkIndex).
	lstride [MaxDims]int
	size    int
	torus   bool
	// coords is the packed coordinate of every node, built once so Coord
	// is a table read rather than a division per axis.
	coords [][MaxDims]uint16
}

// MaxExtent is the largest extent one axis may have: the coordinate
// table stores each coordinate in 16 bits.
const MaxExtent = 1<<16 - 1

// MaxNodes caps a grid's processor count. Each node costs a simulation
// its coordinate-table row, 2*ND directed links of network state and
// allocator and fault state; 2^21 nodes (128x128x128, or 2048x1024) is
// on the order of a gigabyte in all.
const MaxNodes = 1 << 21

// CheckDims reports why dims is not a shape New can build: no axes or
// more than MaxDims, an extent outside [1, MaxExtent], or more than
// MaxNodes nodes in all.
func CheckDims(dims []int) error {
	if len(dims) < 1 || len(dims) > MaxDims {
		return fmt.Errorf("topo: grid needs 1..%d dimensions, got %d", MaxDims, len(dims))
	}
	size := 1
	for i, d := range dims {
		if d <= 0 || d > MaxExtent {
			return fmt.Errorf("topo: extent %d on axis %d outside [1,%d]", d, i, MaxExtent)
		}
		// size <= MaxNodes and d <= MaxExtent, so this cannot overflow.
		if size *= d; size > MaxNodes {
			return fmt.Errorf("topo: grid %v has more than %d nodes", dims, MaxNodes)
		}
	}
	return nil
}

// New returns a grid with the given extents. It panics on a shape
// CheckDims rejects: machine shape is static configuration, so a bad
// shape is a programming error rather than a runtime condition. Callers
// taking shapes from users validate them first (ParseDims does).
func New(dims []int) *Grid {
	if err := CheckDims(dims); err != nil {
		panic(err.Error())
	}
	g := &Grid{nd: len(dims), size: 1}
	for i, d := range dims {
		g.dim[i] = d
		g.stride[i] = g.size
		g.size *= d
	}
	// Unused axes have extent 1 and the full size as stride so Contains
	// and ID treat any nonzero coordinate there as off-grid.
	for i := len(dims); i < MaxDims; i++ {
		g.dim[i] = 1
		g.stride[i] = g.size
	}
	for i := range g.lstride {
		g.lstride[i] = g.stride[i] * g.NumDirs()
	}
	// Axis 0 is fastest, so the table fills as an odometer.
	g.coords = make([][MaxDims]uint16, g.size)
	var c [MaxDims]uint16
	for id := range g.coords {
		g.coords[id] = c
		for i := 0; i < g.nd; i++ {
			if c[i]++; int(c[i]) < g.dim[i] {
				break
			}
			c[i] = 0
		}
	}
	return g
}

// NewTorus returns a grid whose axes all wrap around. Distances, like the
// network's dimension-ordered routes, take the shorter way around each
// axis.
func NewTorus(dims []int) *Grid {
	g := New(dims)
	g.torus = true
	return g
}

// ND returns the number of dimensions.
func (g *Grid) ND() int { return g.nd }

// Dim returns the extent of one axis.
func (g *Grid) Dim(axis int) int { return g.dim[axis] }

// Dims returns the extents as a fresh slice.
func (g *Grid) Dims() []int {
	out := make([]int, g.nd)
	for i := range out {
		out[i] = g.dim[i]
	}
	return out
}

// Size returns the total number of processors.
func (g *Grid) Size() int { return g.size }

// Torus reports whether the grid has wraparound links.
func (g *Grid) Torus() bool { return g.torus }

// Contains reports whether p lies on the grid.
func (g *Grid) Contains(p Point) bool {
	for i := 0; i < MaxDims; i++ {
		if p[i] < 0 || p[i] >= g.dim[i] {
			return false
		}
	}
	return true
}

// ID maps a coordinate to its dense id. It panics if p is off the grid.
// The panic messages here and in Coord are constant strings: both
// functions sit on every hot path and a fmt call — even an unreached
// one — would bloat them needlessly.
func (g *Grid) ID(p Point) int {
	if !g.Contains(p) {
		panic("topo: ID of point outside the grid")
	}
	id := 0
	for i := 0; i < g.nd; i++ {
		id += p[i] * g.stride[i]
	}
	return id
}

// Coord maps a dense id back to its coordinate. It panics on
// out-of-range ids. It is one read of the coordinate table New builds —
// no division — and small enough to inline: it sits under every
// distance computation and shell walk.
func (g *Grid) Coord(id int) Point {
	if uint(id) >= uint(len(g.coords)) {
		panic("topo: Coord of id outside the grid")
	}
	c := &g.coords[id]
	return Point{int(c[0]), int(c[1]), int(c[2]), int(c[3])}
}

// Coords returns the coordinate table Coord reads: row id holds node
// id's coordinates, zero on axes at or above ND. It is shared and must
// not be modified; a caller that reads a few axes of many nodes, such as
// the network's route walker, reads them here without copying a Point.
func (g *Grid) Coords() [][MaxDims]uint16 { return g.coords }

// axisDist returns the hop distance along one axis, wrapping on a torus.
func (g *Grid) axisDist(a, b, extent int) int {
	d := abs(a - b)
	if g.torus && extent-d < d {
		d = extent - d
	}
	return d
}

// Dist returns the distance in hops between the nodes with ids a and b:
// Manhattan on a plain grid, wrapped per axis on a torus.
func (g *Grid) Dist(a, b int) int {
	pa, pb := g.Coord(a), g.Coord(b)
	d := 0
	for i := 0; i < g.nd; i++ {
		d += g.axisDist(pa[i], pb[i], g.dim[i])
	}
	return d
}

// AvgPairwiseDist returns the mean hop distance over all unordered pairs
// of the given node ids. It returns 0 for fewer than two nodes. This is
// the dispersal metric of Mache and Lo that MC1x1 and Gen-Alg minimize.
func (g *Grid) AvgPairwiseDist(ids []int) float64 {
	if len(ids) < 2 {
		return 0
	}
	pairs := len(ids) * (len(ids) - 1) / 2
	return float64(g.TotalPairwiseDist(ids)) / float64(pairs)
}

// TotalPairwiseDist returns the sum of hop distances over all unordered
// pairs of the given node ids.
func (g *Grid) TotalPairwiseDist(ids []int) int {
	total := 0
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			total += g.Dist(ids[i], ids[j])
		}
	}
	return total
}

// NumDirs returns the number of link directions (two per axis).
func (g *Grid) NumDirs() int { return 2 * g.nd }

// NumLinks returns the number of distinct directed links on the grid,
// used to size dense link-state tables. Every node nominally owns 2*ND
// outgoing links; edge nodes own fewer, but a dense table is simpler and
// the waste is tiny.
func (g *Grid) NumLinks() int { return g.size * g.NumDirs() }

// LinkIndex returns a dense index for l suitable for flat link-state
// arrays: the link's source id times NumDirs, plus its direction.
func (g *Grid) LinkIndex(l Link) int {
	return l.From*g.NumDirs() + int(l.Dir)
}

// Neighbor returns the node adjacent to id in direction d and true, or
// (-1, false) when the link would leave a plain grid. On a torus every
// direction wraps, so the second result is always true.
func (g *Grid) Neighbor(id int, d Dir) (int, bool) {
	axis := d.Axis()
	p := g.Coord(id)
	if d.Positive() {
		p[axis]++
	} else {
		p[axis]--
	}
	if p[axis] < 0 || p[axis] >= g.dim[axis] {
		if !g.torus {
			return -1, false
		}
		p[axis] = (p[axis] + g.dim[axis]) % g.dim[axis]
	}
	return g.ID(p), true
}

// Components partitions the given node ids into rectilinearly-connected
// components: two nodes are connected when they are grid-adjacent and
// both in the set. The paper calls a job "allocated contiguously" when
// this yields a single component. The returned components are each
// sorted by id and ordered by their smallest id.
func (g *Grid) Components(ids []int) [][]int {
	if len(ids) == 0 {
		return nil
	}
	// Dense membership bitmaps beat maps here: ids are bounded by the
	// grid size and Components runs once per finished job.
	in := make([]bool, g.size)
	for _, id := range ids {
		in[id] = true
	}
	seen := make([]bool, g.size)
	var comps [][]int
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	for _, start := range sorted {
		if seen[start] {
			continue
		}
		// BFS flood fill over grid adjacency restricted to the set.
		comp := []int{start}
		seen[start] = true
		for qi := 0; qi < len(comp); qi++ {
			u := comp[qi]
			for d := Dir(0); int(d) < g.NumDirs(); d++ {
				v, ok := g.Neighbor(u, d)
				if ok && in[v] && !seen[v] {
					seen[v] = true
					comp = append(comp, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}
