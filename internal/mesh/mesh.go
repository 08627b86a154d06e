// Package mesh is the 2-D facade over the dimension-generic topology
// core in internal/topo: node coordinates, the Manhattan metric, x-y
// dimension-ordered routing, directed links, submeshes, the "shells"
// used by the MC allocator, and rectilinear connectivity (components) of
// processor sets, all specialized to the Width x Height meshes the
// paper's experiments run on.
//
// Everything geometric delegates to topo.Grid — the mesh keeps only the
// 2-D vocabulary (Point with X/Y fields, Submesh, the four named link
// directions) plus the inlining-sensitive id arithmetic. Callers that
// need n-dimensional machines use topo.Grid directly; Grid exposes the
// underlying grid of a mesh so 2-D and n-D code interoperate.
//
// Nodes are identified by dense integer ids in row-major order:
// id = y*Width + x with 0 <= x < Width and 0 <= y < Height.
package mesh

import (
	"fmt"

	"meshalloc/internal/topo"
)

// Point is a node coordinate on the mesh.
type Point struct {
	X, Y int
}

// Add returns the component-wise sum of p and q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Manhattan returns the L1 distance between p and q.
func (p Point) Manhattan(q Point) int {
	return abs(p.X-q.X) + abs(p.Y-q.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// pt converts a mesh coordinate to a generic grid coordinate.
func pt(p Point) topo.Point { return topo.Point{p.X, p.Y} }

// Mesh is a Width x Height 2-D mesh of processors, optionally with
// torus wraparound links. The zero value is not usable; construct with
// New or NewTorus.
type Mesh struct {
	g      *topo.Grid
	width  int
	height int
	torus  bool
}

// New returns a mesh with the given dimensions. It panics if either
// dimension is not positive; mesh sizes are static configuration, so a bad
// size is a programming error rather than a runtime condition.
func New(width, height int) *Mesh {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("mesh: invalid dimensions %dx%d", width, height))
	}
	return &Mesh{g: topo.New([]int{width, height}), width: width, height: height}
}

// NewTorus returns a mesh whose rows and columns wrap around — the
// topology of many production machines the paper's mesh results
// generalize to. Distances and dimension-ordered routes take the shorter
// way around each axis.
func NewTorus(width, height int) *Mesh {
	m := New(width, height)
	m.g = topo.NewTorus([]int{width, height})
	m.torus = true
	return m
}

// FromGrid returns the 2-D mesh view of a two-dimensional grid, sharing
// the grid. It panics when the grid is not 2-D: callers gate on ND
// before asking for a mesh view.
func FromGrid(g *topo.Grid) *Mesh {
	if g.ND() != 2 {
		panic(fmt.Sprintf("mesh: FromGrid of %d-D grid", g.ND()))
	}
	return &Mesh{g: g, width: g.Dim(0), height: g.Dim(1), torus: g.Torus()}
}

// Grid returns the underlying dimension-generic grid.
func (m *Mesh) Grid() *topo.Grid { return m.g }

// Torus reports whether the mesh has wraparound links.
func (m *Mesh) Torus() bool { return m.torus }

// Width returns the extent of the x dimension.
func (m *Mesh) Width() int { return m.width }

// Height returns the extent of the y dimension.
func (m *Mesh) Height() int { return m.height }

// Size returns the total number of processors.
func (m *Mesh) Size() int { return m.width * m.height }

// Contains reports whether p lies on the mesh.
func (m *Mesh) Contains(p Point) bool {
	return p.X >= 0 && p.X < m.width && p.Y >= 0 && p.Y < m.height
}

// ID maps a coordinate to its dense row-major id. It panics if p is off the
// mesh. The panic messages here and in Coord are constant strings rather
// than formatted ones: both functions sit on every hot path of the
// simulator and a fmt call — even an unreached one — would push them past
// the compiler's inlining budget, which is also why the 2-D arithmetic is
// kept inline instead of delegating to the generic grid.
func (m *Mesh) ID(p Point) int {
	if !m.Contains(p) {
		panic("mesh: ID of point outside the mesh")
	}
	return p.Y*m.width + p.X
}

// Coord maps a dense id back to its coordinate. It panics on out-of-range
// ids.
func (m *Mesh) Coord(id int) Point {
	if id < 0 || id >= m.width*m.height {
		panic("mesh: Coord of id outside the mesh")
	}
	return Point{X: id % m.width, Y: id / m.width}
}

// Dist returns the distance in hops between the nodes with ids a and b:
// Manhattan on a plain mesh, wrapped per axis on a torus.
func (m *Mesh) Dist(a, b int) int {
	pa, pb := m.Coord(a), m.Coord(b)
	return m.axisDist(pa.X, pb.X, m.width) + m.axisDist(pa.Y, pb.Y, m.height)
}

// axisDist returns the per-axis hop distance, wrapping on a torus.
func (m *Mesh) axisDist(a, b, extent int) int {
	d := abs(a - b)
	if m.torus && extent-d < d {
		d = extent - d
	}
	return d
}

// AvgPairwiseDist returns the mean hop distance over all unordered pairs
// of the given node ids. It returns 0 for fewer than two nodes. This is
// the dispersal metric of Mache and Lo that MC1x1 and Gen-Alg minimize.
func (m *Mesh) AvgPairwiseDist(ids []int) float64 { return m.g.AvgPairwiseDist(ids) }

// TotalPairwiseDist returns the sum of hop distances over all unordered
// pairs of the given node ids.
func (m *Mesh) TotalPairwiseDist(ids []int) int { return m.g.TotalPairwiseDist(ids) }

// Direction identifies one of the four mesh link directions. It is the
// generic topo.Dir restricted to axes x and y.
type Direction = topo.Dir

// Link directions. XPos is toward increasing x, YNeg toward decreasing y,
// and so on.
const (
	XPos Direction = iota
	XNeg
	YPos
	YNeg
)

// Link is a directed channel from node From to an adjacent node. Two
// adjacent nodes are joined by two links, one in each direction, as in a
// full-duplex mesh.
type Link = topo.Link

// NumLinks returns the number of distinct directed links on the mesh,
// used to size dense link-state tables.
func (m *Mesh) NumLinks() int { return m.g.NumLinks() }

// LinkIndex returns a dense index for l suitable for flat link-state
// arrays; the inverse of LinkAt.
func (m *Mesh) LinkIndex(l Link) int { return m.g.LinkIndex(l) }

// LinkAt returns the link with the given dense index.
func (m *Mesh) LinkAt(idx int) Link { return m.g.LinkAt(idx) }

// Neighbor returns the node adjacent to id in direction d and true, or
// (-1, false) when the link would leave a plain mesh. On a torus every
// direction wraps, so the second result is always true.
func (m *Mesh) Neighbor(id int, d Direction) (int, bool) { return m.g.Neighbor(id, d) }

// Route returns the x-y dimension-ordered route from src to dst as the
// ordered sequence of directed links traversed: first all x hops, then all
// y hops, exactly as Paragon-/CPlant-style mesh routers forward wormhole
// packets. An empty slice means src == dst.
func (m *Mesh) Route(src, dst int) []Link { return m.g.Route(src, dst) }

// RouteYX returns the y-x dimension-ordered route (all y hops first), the
// alternative deterministic routing used for routing-sensitivity studies.
func (m *Mesh) RouteYX(src, dst int) []Link {
	return m.AppendRouteYX(make([]Link, 0, m.Dist(src, dst)), src, dst)
}

// AppendRoute appends the x-y dimension-ordered route from src to dst to
// links and returns the extended slice. It is the allocation-free variant
// of Route for callers that reuse a scratch buffer per message.
func (m *Mesh) AppendRoute(links []Link, src, dst int) []Link {
	return m.g.AppendRoute(links, src, dst)
}

// AppendRouteYX is AppendRoute for y-x dimension-ordered routing.
func (m *Mesh) AppendRouteYX(links []Link, src, dst int) []Link {
	return m.g.AppendRouteRev(links, src, dst)
}

// RouteLen returns the number of links on the x-y route from src to dst,
// which equals the Manhattan distance.
func (m *Mesh) RouteLen(src, dst int) int { return m.Dist(src, dst) }

// Submesh describes an axis-aligned rectangle of nodes.
type Submesh struct {
	Origin Point // lowest-coordinate corner
	W, H   int   // extents; both positive
}

// Contains reports whether p lies in the submesh.
func (s Submesh) Contains(p Point) bool {
	return p.X >= s.Origin.X && p.X < s.Origin.X+s.W &&
		p.Y >= s.Origin.Y && p.Y < s.Origin.Y+s.H
}

// Area returns the number of nodes covered by the submesh.
func (s Submesh) Area() int { return s.W * s.H }

// box converts a submesh to the generic box form.
func box(s Submesh) topo.Box {
	return topo.Box{Origin: topo.Point{s.Origin.X, s.Origin.Y}, Ext: topo.Point{s.W, s.H, 1, 1}}
}

// Nodes returns the ids of the submesh's nodes that lie on m, in row-major
// order. Parts of the submesh hanging off the mesh are skipped, which is
// how MC evaluates candidate allocations near mesh edges.
func (m *Mesh) Nodes(s Submesh) []int {
	return m.AppendNodes(make([]int, 0, s.Area()), s)
}

// AppendNodes appends the ids of the submesh's on-mesh nodes to ids in
// row-major order and returns the extended slice — the allocation-free
// variant of Nodes.
func (m *Mesh) AppendNodes(ids []int, s Submesh) []int {
	return m.g.AppendNodes(ids, box(s))
}

// Shell returns the ids of the nodes on m in shell k around the W x H
// submesh centered on c: shell 0 is the submesh itself, shell k>0 is the
// border ring of the (W+2k) x (H+2k) submesh. This matches the growth rule
// of Mache et al.'s MC allocator (Figure 4 of the paper).
func (m *Mesh) Shell(c Point, w, h, k int) []int {
	return m.g.Shell(pt(c), topo.Point{w, h}, k)
}

// AppendShell appends the ids of shell k around the W x H submesh centered
// on c to ids and returns the extended slice. It is the allocation-free
// variant of Shell: MC-style shell scoring reuses one scratch slice per
// allocator instead of allocating a fresh ring per candidate.
func (m *Mesh) AppendShell(ids []int, c Point, w, h, k int) []int {
	return m.g.AppendShell(ids, pt(c), topo.Point{w, h}, k)
}

// ShellEach calls fn with the id of every on-mesh node of shell k in
// row-major order, stopping early when fn returns false. It reports
// whether the walk ran to completion. It is the index-callback variant of
// Shell for callers that do not need the ids materialized at all.
func (m *Mesh) ShellEach(c Point, w, h, k int, fn func(id int) bool) bool {
	return m.g.ShellEach(pt(c), topo.Point{w, h}, k, fn)
}

// MaxShells returns an upper bound on the number of shells needed to cover
// the whole mesh from any center for a W x H base submesh.
func (m *Mesh) MaxShells(w, h int) int {
	// Growing by one node per side per shell, max(width, height) shells
	// always suffice.
	return m.g.MaxShells()
}

// Components partitions the given node ids into rectilinearly-connected
// components: two nodes are connected when they are mesh-adjacent and both
// in the set. The paper calls a job "allocated contiguously" when this
// yields a single component. The returned components are each sorted by id
// and ordered by their smallest id.
func (m *Mesh) Components(ids []int) [][]int { return m.g.Components(ids) }

// Contiguous reports whether the node set forms a single rectilinear
// component.
func (m *Mesh) Contiguous(ids []int) bool { return m.g.Contiguous(ids) }
