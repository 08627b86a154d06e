package alloc

import (
	"fmt"
	"math/bits"

	"meshalloc/internal/mesh"
	"meshalloc/internal/occupancy"
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
// inherently two-dimensional and keeps a mesh view beside the generic
// busy tracker.
//
// The free-box search is word-parallel: each mesh row keeps a free
// bitmask, a per-row RunMask marks every x where a horizontal run of the
// shape's width starts, and ANDing h consecutive rows' masks leaves
// exactly the anchors of fully-free w x h submeshes — the first set bit
// is the same anchor a cell-by-cell scan finds, 64 anchors per
// instruction.
type SubmeshFirstFit struct {
	tracker
	m *mesh.Mesh
	// rowBits holds one free bitmask per mesh row (bit x of row y set =
	// node (x,y) free), ww words per row; rmBuf is the per-row run-mask
	// scratch of findFree.
	ww      int
	rowBits []uint64
	rmBuf   []uint64
}

// NewSubmeshFirstFit returns a first-fit contiguous submesh allocator.
func NewSubmeshFirstFit(m *mesh.Mesh) *SubmeshFirstFit {
	a := &SubmeshFirstFit{
		tracker: newTracker(m.Grid()),
		m:       m,
		ww:      (m.Width() + 63) >> 6,
	}
	a.rowBits = make([]uint64, m.Height()*a.ww)
	a.rmBuf = make([]uint64, m.Height()*a.ww)
	a.fillRowBits()
	return a
}

// fillRowBits marks every node free in the row bitmasks, keeping pad bits
// past Width() clear so runs can never extend across a row boundary.
func (a *SubmeshFirstFit) fillRowBits() {
	w := a.m.Width()
	for y := 0; y < a.m.Height(); y++ {
		row := a.rowBits[y*a.ww : (y+1)*a.ww]
		for i := range row {
			row[i] = ^uint64(0)
		}
		if r := uint(w) & 63; r != 0 {
			row[len(row)-1] = (1 << r) - 1
		}
	}
}

// take shadows tracker.take to keep the row bitmasks in lockstep. All
// in-package callers (Allocate and the fragmentation tests) go through
// this method, so the masks can never drift from the busy bitmap.
func (a *SubmeshFirstFit) take(ids []int) {
	a.tracker.take(ids)
	for _, id := range ids {
		row, x := a.g.RowOf(id)
		a.rowBits[row*a.ww+x>>6] &^= 1 << (uint(x) & 63)
	}
}

// Release implements Allocator.
func (a *SubmeshFirstFit) Release(ids []int) {
	a.tracker.Release(ids)
	for _, id := range ids {
		row, x := a.g.RowOf(id)
		a.rowBits[row*a.ww+x>>6] |= 1 << (uint(x) & 63)
	}
}

// Reset implements Allocator.
func (a *SubmeshFirstFit) Reset() {
	a.tracker.Reset()
	a.fillRowBits()
}

// MarkDown shadows tracker.MarkDown to keep the row bitmasks in
// lockstep: a downed node must break free runs in the word-parallel
// anchor search exactly like an allocated one, or findFree would anchor
// submeshes on dead processors. Submesh allocation is the allocator
// that degrades hardest under failures — a single hole vetoes every
// submesh covering it — which is exactly the comparison the fault
// experiments are after.
func (a *SubmeshFirstFit) MarkDown(id int) {
	a.tracker.MarkDown(id)
	row, x := a.g.RowOf(id)
	a.rowBits[row*a.ww+x>>6] &^= 1 << (uint(x) & 63)
}

// MarkUp shadows tracker.MarkUp, restoring the node's run bit.
func (a *SubmeshFirstFit) MarkUp(id int) {
	a.tracker.MarkUp(id)
	row, x := a.g.RowOf(id)
	a.rowBits[row*a.ww+x>>6] |= 1 << (uint(x) & 63)
}

// Occupy shadows tracker.Occupy so restore-time occupation lands in the
// take shadow that keeps the row bitmasks in lockstep.
func (a *SubmeshFirstFit) Occupy(ids []int) {
	for _, id := range ids {
		if id < 0 || id >= len(a.busy) || a.busy[id] {
			panic(fmt.Sprintf("alloc: occupy of busy or invalid id %d", id))
		}
	}
	a.take(ids)
}

// AuditIndexes implements Auditor: the generic busy/free-count check
// plus the row bitmasks the word-parallel anchor search depends on.
func (a *SubmeshFirstFit) AuditIndexes() error {
	if err := a.tracker.AuditIndexes(); err != nil {
		return err
	}
	for id := range a.busy {
		row, x := a.g.RowOf(id)
		bit := a.rowBits[row*a.ww+x>>6]&(1<<(uint(x)&63)) != 0
		if bit == a.busy[id] {
			return fmt.Errorf("alloc: node %d busy=%v but row bitmask free=%v", id, a.busy[id], bit)
		}
	}
	return nil
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
		if w >= 1 && h >= 1 && w <= a.m.Width() && h <= a.m.Height() && w*h >= req.Size && !seen[s] {
			seen[s] = true
			shapes = append(shapes, s)
		}
	}
	w, h := req.Shape()
	add(w, h)
	add(h, w)
	for hh := 1; hh <= a.m.Height(); hh++ {
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
	if w > a.m.Width() || h > a.m.Height() {
		return nil
	}
	// Per-row run masks: bit x of row y set iff cells (x..x+w-1, y) are
	// all free. Pad bits are clear, so no run crosses the right edge.
	for y := 0; y < a.m.Height(); y++ {
		occupancy.RunMask(a.rmBuf[y*a.ww:(y+1)*a.ww], a.rowBits[y*a.ww:(y+1)*a.ww], w)
	}
	for y := 0; y+h <= a.m.Height(); y++ {
		for wi := 0; wi < a.ww; wi++ {
			v := a.rmBuf[y*a.ww+wi]
			for dy := 1; dy < h && v != 0; dy++ {
				v &= a.rmBuf[(y+dy)*a.ww+wi]
			}
			if v != 0 {
				x := wi<<6 + bits.TrailingZeros64(v)
				ids := a.m.Nodes(mesh.Submesh{Origin: mesh.Point{X: x, Y: y}, W: w, H: h})
				return ids[:size]
			}
		}
	}
	return nil
}

// Buddy is the two-dimensional buddy system of Li and Cheng: the mesh is
// viewed as a quadtree of square blocks; a job receives the smallest
// power-of-two square block that covers its request, splitting larger
// free blocks as needed and coalescing buddies on release. It requires
// a square mesh whose side is a power of two.
type Buddy struct {
	m    *mesh.Mesh
	side int
	// free[level] holds the origins of free blocks of side side>>level,
	// as a set for O(1) buddy lookups.
	free    []map[mesh.Point]bool
	alloced map[mesh.Point]int // origin -> level of live blocks
	byFirst map[int]mesh.Point // first processor id -> block origin
	numFree int
}

// NewBuddy returns a 2-D buddy allocator over m. It panics unless m is
// a square power-of-two mesh, the structural requirement of the
// algorithm.
func NewBuddy(m *mesh.Mesh) *Buddy {
	n := m.Width()
	if m.Height() != n || n&(n-1) != 0 {
		panic(fmt.Sprintf("alloc: buddy system needs a square power-of-two mesh, got %dx%d",
			m.Width(), m.Height()))
	}
	levels := 1
	for s := n; s > 1; s /= 2 {
		levels++
	}
	b := &Buddy{
		m:       m,
		side:    n,
		free:    make([]map[mesh.Point]bool, levels),
		alloced: map[mesh.Point]int{},
		byFirst: map[int]mesh.Point{},
		numFree: m.Size(),
	}
	for i := range b.free {
		b.free[i] = map[mesh.Point]bool{}
	}
	b.free[0][mesh.Point{X: 0, Y: 0}] = true
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
	ids := b.m.Nodes(mesh.Submesh{Origin: origin, W: side, H: side})[:req.Size]
	b.alloced[origin] = level
	b.byFirst[b.m.ID(origin)] = origin
	b.numFree -= side * side
	return ids, nil
}

// acquire finds or splits a free block at the level, returning its
// origin.
func (b *Buddy) acquire(level int) (mesh.Point, bool) {
	if len(b.free[level]) > 0 {
		origin := smallestPoint(b.free[level])
		delete(b.free[level], origin)
		return origin, true
	}
	if level == 0 {
		return mesh.Point{}, false
	}
	parent, ok := b.acquire(level - 1)
	if !ok {
		return mesh.Point{}, false
	}
	// Split the parent: keep the NW child, free the other three.
	s := b.blockSide(level)
	for _, d := range []mesh.Point{{X: s, Y: 0}, {X: 0, Y: s}, {X: s, Y: s}} {
		b.free[level][parent.Add(d)] = true
	}
	return parent, true
}

// Release implements Allocator.
func (b *Buddy) Release(ids []int) {
	if len(ids) == 0 {
		return
	}
	first := ids[0]
	origin, ok := b.byFirst[first]
	if !ok {
		panic(fmt.Sprintf("alloc: buddy release of unknown block at id %d", first))
	}
	level := b.alloced[origin]
	delete(b.byFirst, first)
	delete(b.alloced, origin)
	side := b.blockSide(level)
	b.numFree += side * side
	b.freeAndCoalesce(origin, level)
}

// freeAndCoalesce returns a block to the free lists, merging buddies
// upward while all four children of a parent are free.
func (b *Buddy) freeAndCoalesce(origin mesh.Point, level int) {
	for level > 0 {
		s := b.blockSide(level)
		parent := mesh.Point{X: origin.X &^ (2*s - 1), Y: origin.Y &^ (2*s - 1)}
		siblings := []mesh.Point{
			parent,
			{X: parent.X + s, Y: parent.Y},
			{X: parent.X, Y: parent.Y + s},
			{X: parent.X + s, Y: parent.Y + s},
		}
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
		origin = parent
		level--
	}
	b.free[level][origin] = true
}

// Occupy implements Occupier by carving the job's block back out of
// the quadtree: the block level follows from the id count exactly as in
// Allocate, and the deepest free ancestor containing the block's origin
// is split downward, freeing the non-containing children. Eager
// coalescing on release plus this lazy splitting make the free-block
// set a pure function of the allocated-block set, so re-occupying jobs
// in any order reconstructs the same quadtree the run had at snapshot
// time. It panics on a block that is misaligned or not free — a corrupt
// snapshot the restore path converts to a typed error.
func (b *Buddy) Occupy(ids []int) {
	if len(ids) == 0 || len(ids) > b.m.Size() {
		panic(fmt.Sprintf("alloc: buddy occupy of %d ids", len(ids)))
	}
	if ids[0] < 0 || ids[0] >= b.m.Size() {
		panic(fmt.Sprintf("alloc: buddy occupy of invalid id %d", ids[0]))
	}
	level := b.levelFor(len(ids))
	s := b.blockSide(level)
	origin := b.m.Coord(ids[0])
	if origin.X&(s-1) != 0 || origin.Y&(s-1) != 0 {
		panic(fmt.Sprintf("alloc: buddy occupy of misaligned block at %v (side %d)", origin, s))
	}
	if _, taken := b.alloced[origin]; taken {
		panic(fmt.Sprintf("alloc: buddy occupy of allocated block at %v", origin))
	}
	// Find the deepest free ancestor containing the block.
	anc, ancLevel := mesh.Point{}, -1
	for l := level; l >= 0; l-- {
		S := b.blockSide(l)
		p := mesh.Point{X: origin.X &^ (S - 1), Y: origin.Y &^ (S - 1)}
		if b.free[l][p] {
			anc, ancLevel = p, l
			break
		}
	}
	if ancLevel < 0 {
		panic(fmt.Sprintf("alloc: buddy occupy with no free block covering %v", origin))
	}
	delete(b.free[ancLevel], anc)
	// Split down to the target level, keeping the child containing the
	// origin and freeing its three siblings at each step.
	for l := ancLevel; l < level; l++ {
		S := b.blockSide(l + 1)
		keep := mesh.Point{X: origin.X &^ (S - 1), Y: origin.Y &^ (S - 1)}
		for _, d := range []mesh.Point{{X: 0, Y: 0}, {X: S, Y: 0}, {X: 0, Y: S}, {X: S, Y: S}} {
			if child := anc.Add(d); child != keep {
				b.free[l+1][child] = true
			}
		}
		anc = keep
	}
	b.alloced[origin] = level
	b.byFirst[b.m.ID(origin)] = origin
	b.numFree -= s * s
}

// AuditIndexes implements Auditor: free-block areas must sum to the
// cached free count, allocated blocks must tile the remainder, and the
// byFirst index must mirror the allocated set.
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
	for origin, l := range b.alloced {
		s := b.blockSide(l)
		allocArea += s * s
		if got, ok := b.byFirst[b.m.ID(origin)]; !ok || got != origin {
			return fmt.Errorf("alloc: buddy block at %v missing from the byFirst index", origin)
		}
	}
	if len(b.byFirst) != len(b.alloced) {
		return fmt.Errorf("alloc: buddy byFirst holds %d blocks, alloced %d", len(b.byFirst), len(b.alloced))
	}
	if freeArea+allocArea != b.m.Size() {
		return fmt.Errorf("alloc: buddy blocks cover %d of %d processors", freeArea+allocArea, b.m.Size())
	}
	return nil
}

// NumFree implements Allocator: processors in free blocks.
func (b *Buddy) NumFree() int { return b.numFree }

// Reset implements Allocator.
func (b *Buddy) Reset() {
	for i := range b.free {
		b.free[i] = map[mesh.Point]bool{}
	}
	b.free[0][mesh.Point{X: 0, Y: 0}] = true
	b.alloced = map[mesh.Point]int{}
	b.byFirst = map[int]mesh.Point{}
	b.numFree = b.m.Size()
}

// smallestPoint returns the lexicographically (y, x) smallest point of a
// set, keeping buddy allocation deterministic.
func smallestPoint(set map[mesh.Point]bool) mesh.Point {
	var best mesh.Point
	first := true
	for p := range set {
		if first || p.Y < best.Y || (p.Y == best.Y && p.X < best.X) {
			best = p
			first = false
		}
	}
	return best
}
