package alloc

import (
	"fmt"
	"math/bits"

	"meshalloc/internal/occupancy"
	"meshalloc/internal/topo"
)

// The paper's Section 2 recounts that initial processor-allocation
// algorithms allocated only convex (contiguous) processor sets, which
// eliminates interjob contention but "reduces system utilization to
// levels unacceptable for any government-audited system". These two
// classic contiguous allocators reproduce that trade-off as baselines:
// they can refuse a request even when enough processors are free
// (external fragmentation), leaving the FCFS head blocked.

// SubmeshFirstFit is Zhu's first-fit submesh allocation: scan anchor
// positions in row-major order and allocate the first fully-free
// submesh of the request's shape (trying both orientations). It is
// inherently two-dimensional: axis 0 of its grid is x, axis 1 is y.
//
// The free-box search is word-parallel: the tracker's row index keeps a
// free bitmask per mesh row, a per-row RunMask marks every x where a
// horizontal run of the shape's width starts, and ANDing h consecutive
// rows' masks leaves exactly the anchors of fully-free w x h submeshes —
// the first set bit is the same anchor a cell-by-cell scan finds, 64
// anchors per instruction. Fault masking goes through the tracker too,
// so a downed node breaks free runs exactly like an allocated one:
// submesh allocation degrades hardest under failures — a single hole
// vetoes every submesh covering it — which is exactly the comparison
// the fault experiments are after.
type SubmeshFirstFit struct {
	tracker
	rmBuf []uint64 // per-row run-mask scratch of findFree
}

// NewSubmeshFirstFit returns a first-fit contiguous submesh allocator
// over the 2-D grid g. It panics when g is not 2-D.
func NewSubmeshFirstFit(g *topo.Grid) *SubmeshFirstFit {
	need2D(g, "submesh first fit")
	a := &SubmeshFirstFit{tracker: newTracker(g)}
	a.rows = newRowMasks(g)
	a.rmBuf = make([]uint64, len(a.rows.bits))
	return a
}

// rowMasks is the submesh allocator's occupancy index: one free bitmask
// per row of a 2-D grid (bit x of row y set = node (x,y) free), ww words
// per row. Pad bits past the grid's width stay clear, so runs can never
// extend across a row boundary.
type rowMasks struct {
	g    *topo.Grid
	ww   int
	bits []uint64
}

// newRowMasks returns the row index of g with every node free.
func newRowMasks(g *topo.Grid) *rowMasks {
	r := &rowMasks{g: g, ww: (g.Dim(0) + 63) >> 6}
	r.bits = make([]uint64, g.Dim(1)*r.ww)
	for y := 0; y < g.Dim(1); y++ {
		row := r.row(y)
		for i := range row {
			row[i] = ^uint64(0)
		}
		if rem := uint(g.Dim(0)) & 63; rem != 0 {
			row[len(row)-1] = (1 << rem) - 1
		}
	}
	return r
}

// row returns the free bitmask words of row y.
func (r *rowMasks) row(y int) []uint64 { return r.bits[y*r.ww : (y+1)*r.ww] }

// word returns the index of node id's word and its bit within it.
func (r *rowMasks) word(id int) (int, uint64) {
	y, x := r.g.RowOf(id)
	return y*r.ww + x>>6, 1 << (uint(x) & 63)
}

func (r *rowMasks) take(id int) {
	w, bit := r.word(id)
	r.bits[w] &^= bit
}

func (r *rowMasks) release(id int) {
	w, bit := r.word(id)
	r.bits[w] |= bit
}

func (r *rowMasks) free(id int) bool {
	w, bit := r.word(id)
	return r.bits[w]&bit != 0
}

// need2D panics unless g is 2-D: the contiguous allocators' callers gate
// on the grid's dimensionality (Spec returns an error instead).
func need2D(g *topo.Grid, what string) {
	if g.ND() != 2 {
		panic(fmt.Sprintf("alloc: %s needs a 2-D grid, got %d-D", what, g.ND()))
	}
}

// Name implements Allocator.
func (a *SubmeshFirstFit) Name() string { return "submesh" }

// Allocate implements Allocator. Unlike the noncontiguous algorithms it
// returns ErrInsufficient whenever no free submesh covering the request
// exists, even if enough processors are free in fragments.
func (a *SubmeshFirstFit) Allocate(req Request) ([]int, error) {
	if err := a.check(req.Size); err != nil {
		return nil, err
	}
	for _, s := range a.candidateShapes(req) {
		if ids := a.findFree(s[0], s[1], req.Size); ids != nil {
			a.take(ids)
			return ids, nil
		}
	}
	return nil, ErrInsufficient
}

// candidateShapes lists the submesh shapes that cover the request and
// fit the mesh, most-square first: the user-requested or derived shape
// and its rotation, then every (ceil(size/h), h) that fits. Without the
// fallback shapes a near-square request larger than the shorter mesh
// dimension squared could never be placed.
func (a *SubmeshFirstFit) candidateShapes(req Request) [][2]int {
	var shapes [][2]int
	seen := map[[2]int]bool{}
	add := func(w, h int) {
		s := [2]int{w, h}
		if w >= 1 && h >= 1 && w <= a.g.Dim(0) && h <= a.g.Dim(1) && w*h >= req.Size && !seen[s] {
			seen[s] = true
			shapes = append(shapes, s)
		}
	}
	w, h := req.Shape()
	add(w, h)
	add(h, w)
	for hh := 1; hh <= a.g.Dim(1); hh++ {
		add((req.Size+hh-1)/hh, hh)
	}
	// Most-square first so allocations stay compact when possible.
	for i := 1; i < len(shapes); i++ {
		for j := i; j > 0 && squareness(shapes[j]) < squareness(shapes[j-1]); j-- {
			shapes[j], shapes[j-1] = shapes[j-1], shapes[j]
		}
	}
	return shapes
}

func squareness(s [2]int) int { return abs(s[0] - s[1]) }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// findFree returns the first size processors of the first fully-free
// w x h submesh in row-major anchor order, or nil.
func (a *SubmeshFirstFit) findFree(w, h, size int) []int {
	if w > a.g.Dim(0) || h > a.g.Dim(1) {
		return nil
	}
	// Per-row run masks: bit x of row y set iff cells (x..x+w-1, y) are
	// all free. Pad bits are clear, so no run crosses the right edge.
	ww := a.rows.ww
	for y := 0; y < a.g.Dim(1); y++ {
		occupancy.RunMask(a.rmBuf[y*ww:(y+1)*ww], a.rows.row(y), w)
	}
	for y := 0; y+h <= a.g.Dim(1); y++ {
		for wi := 0; wi < ww; wi++ {
			v := a.rmBuf[y*ww+wi]
			for dy := 1; dy < h && v != 0; dy++ {
				v &= a.rmBuf[(y+dy)*ww+wi]
			}
			if v != 0 {
				x := wi<<6 + bits.TrailingZeros64(v)
				return a.g.Nodes(rect(x, y, w, h))[:size]
			}
		}
	}
	return nil
}

// rect is the w x h box of a 2-D grid whose lowest corner is (x, y).
func rect(x, y, w, h int) topo.Box {
	return topo.Box{Origin: topo.XY(x, y), Ext: topo.Point{w, h, 1, 1}}
}

// Buddy is the two-dimensional buddy system of Li and Cheng: the mesh is
// viewed as a quadtree of square blocks; a job receives the smallest
// power-of-two square block that covers its request, splitting larger
// free blocks as needed and coalescing buddies on release. It requires
// a square mesh whose side is a power of two.
//
// Blocks are keyed by the node id of their origin (lowest corner). Ids
// are row-major, so the smallest (y, x) origin is the smallest id, and a
// job's first processor is its block's origin.
type Buddy struct {
	g    *topo.Grid
	side int
	// free[level] holds the origins of free blocks of side side>>level,
	// as a set for O(1) buddy lookups.
	free    []map[int]bool
	alloced map[int]int // origin -> level of live blocks
	numFree int
}

// NewBuddy returns a 2-D buddy allocator over g. It panics unless g is
// a square power-of-two 2-D grid, the structural requirement of the
// algorithm.
func NewBuddy(g *topo.Grid) *Buddy {
	need2D(g, "buddy system")
	n := g.Dim(0)
	if g.Dim(1) != n || n&(n-1) != 0 {
		panic(fmt.Sprintf("alloc: buddy system needs a square power-of-two mesh, got %dx%d",
			g.Dim(0), g.Dim(1)))
	}
	levels := 1
	for s := n; s > 1; s /= 2 {
		levels++
	}
	b := &Buddy{g: g, side: n, free: make([]map[int]bool, levels),
		alloced: map[int]int{}, numFree: g.Size()}
	for i := range b.free {
		b.free[i] = map[int]bool{}
	}
	b.free[0][0] = true
	return b
}

// Name implements Allocator.
func (b *Buddy) Name() string { return "buddy" }

// blockSide returns the side of blocks at a level.
func (b *Buddy) blockSide(level int) int { return b.side >> uint(level) }

// levelFor returns the deepest level whose block covers size processors.
func (b *Buddy) levelFor(size int) int {
	level := len(b.free) - 1
	for ; level > 0; level-- {
		s := b.blockSide(level)
		if s*s >= size {
			return level
		}
	}
	return 0
}

// alignDown returns the origin of the side-s block containing node id.
func (b *Buddy) alignDown(id, s int) int {
	x, y := id%b.side, id/b.side
	return (y&^(s-1))*b.side + x&^(s-1)
}

// quad returns the origins of the four side-s blocks that split the
// side-2s block at origin, in row-major order.
func (b *Buddy) quad(origin, s int) [4]int {
	return [4]int{origin, origin + s, origin + s*b.side, origin + s*b.side + s}
}

// Allocate implements Allocator. Jobs receive the first size processors
// of a square block; the rest of the block is wasted (internal
// fragmentation), and requests can fail on external fragmentation.
func (b *Buddy) Allocate(req Request) ([]int, error) {
	if req.Size <= 0 {
		return nil, fmt.Errorf("alloc: invalid request size %d", req.Size)
	}
	if req.Size > b.numFree {
		return nil, ErrInsufficient
	}
	level := b.levelFor(req.Size)
	origin, ok := b.acquire(level)
	if !ok {
		return nil, ErrInsufficient
	}
	side := b.blockSide(level)
	ids := b.g.Nodes(rect(origin%b.side, origin/b.side, side, side))[:req.Size]
	b.alloced[origin] = level
	b.numFree -= side * side
	return ids, nil
}

// acquire finds or splits a free block at the level, returning its
// origin.
func (b *Buddy) acquire(level int) (int, bool) {
	if len(b.free[level]) > 0 {
		origin := smallestOrigin(b.free[level])
		delete(b.free[level], origin)
		return origin, true
	}
	if level == 0 {
		return 0, false
	}
	parent, ok := b.acquire(level - 1)
	if !ok {
		return 0, false
	}
	// Split the parent: keep the NW child, free the other three.
	q := b.quad(parent, b.blockSide(level))
	for _, child := range q[1:] {
		b.free[level][child] = true
	}
	return parent, true
}

// Release implements Allocator.
func (b *Buddy) Release(ids []int) {
	if len(ids) == 0 {
		return
	}
	origin := ids[0]
	level, ok := b.alloced[origin]
	if !ok {
		panic(fmt.Sprintf("alloc: buddy release of unknown block at id %d", origin))
	}
	delete(b.alloced, origin)
	side := b.blockSide(level)
	b.numFree += side * side
	b.freeAndCoalesce(origin, level)
}

// freeAndCoalesce returns a block to the free lists, merging buddies
// upward while all four children of a parent are free.
func (b *Buddy) freeAndCoalesce(origin, level int) {
	for level > 0 {
		s := b.blockSide(level)
		siblings := b.quad(b.alignDown(origin, 2*s), s)
		allFree := true
		for _, sib := range siblings {
			if sib != origin && !b.free[level][sib] {
				allFree = false
				break
			}
		}
		if !allFree {
			break
		}
		for _, sib := range siblings {
			delete(b.free[level], sib)
		}
		origin = siblings[0]
		level--
	}
	b.free[level][origin] = true
}

// Occupy implements Allocator by carving the job's block back out of
// the quadtree: the block level follows from the id count exactly as in
// Allocate, and the deepest free ancestor containing the block's origin
// is split downward, freeing the non-containing children. Eager
// coalescing on release plus this lazy splitting make the free-block
// set a pure function of the allocated-block set, so re-occupying jobs
// in any order reconstructs the same quadtree the run had at snapshot
// time. It panics on a block that is misaligned or not free — a corrupt
// snapshot the restore path converts to a typed error.
func (b *Buddy) Occupy(ids []int) {
	if len(ids) == 0 || len(ids) > b.g.Size() {
		panic(fmt.Sprintf("alloc: buddy occupy of %d ids", len(ids)))
	}
	origin := ids[0]
	if origin < 0 || origin >= b.g.Size() {
		panic(fmt.Sprintf("alloc: buddy occupy of invalid id %d", origin))
	}
	level := b.levelFor(len(ids))
	s := b.blockSide(level)
	if b.alignDown(origin, s) != origin {
		panic(fmt.Sprintf("alloc: buddy occupy of misaligned block at id %d (side %d)", origin, s))
	}
	if _, taken := b.alloced[origin]; taken {
		panic(fmt.Sprintf("alloc: buddy occupy of allocated block at id %d", origin))
	}
	// Find the deepest free ancestor containing the block.
	anc, ancLevel := 0, -1
	for l := level; l >= 0; l-- {
		if p := b.alignDown(origin, b.blockSide(l)); b.free[l][p] {
			anc, ancLevel = p, l
			break
		}
	}
	if ancLevel < 0 {
		panic(fmt.Sprintf("alloc: buddy occupy with no free block covering id %d", origin))
	}
	delete(b.free[ancLevel], anc)
	// Split down to the target level, keeping the child containing the
	// origin and freeing its three siblings at each step.
	for l := ancLevel; l < level; l++ {
		S := b.blockSide(l + 1)
		keep := b.alignDown(origin, S)
		for _, child := range b.quad(anc, S) {
			if child != keep {
				b.free[l+1][child] = true
			}
		}
		anc = keep
	}
	b.alloced[origin] = level
	b.numFree -= s * s
}

// AuditIndexes implements Allocator: free-block areas must sum to the
// cached free count, and allocated blocks must tile the remainder.
func (b *Buddy) AuditIndexes() error {
	freeArea := 0
	for l, set := range b.free {
		s := b.blockSide(l)
		freeArea += len(set) * s * s
	}
	if freeArea != b.numFree {
		return fmt.Errorf("alloc: buddy free blocks cover %d processors, cached numFree %d", freeArea, b.numFree)
	}
	allocArea := 0
	for _, l := range b.alloced {
		s := b.blockSide(l)
		allocArea += s * s
	}
	if freeArea+allocArea != b.g.Size() {
		return fmt.Errorf("alloc: buddy blocks cover %d of %d processors", freeArea+allocArea, b.g.Size())
	}
	return nil
}

// NumFree implements Allocator: processors in free blocks.
func (b *Buddy) NumFree() int { return b.numFree }

// smallestOrigin returns the smallest origin of a set — the (y, x)
// smallest block — keeping buddy allocation deterministic.
func smallestOrigin(set map[int]bool) int {
	best := -1
	for id := range set {
		if best < 0 || id < best {
			best = id
		}
	}
	return best
}
