package topo

// Boxes, shells and rings: the geometric gather primitives behind the
// MC shell-scoring allocator family (axis-aligned box shells, Figure 4
// of the paper) and Gen-Alg's nearest-free search (exact Manhattan
// rings). All walkers visit nodes in row-major order — axis 0 fastest —
// which keeps the n-D generalization bit-compatible with the original
// 2-D implementations.

// Box describes an axis-aligned box of nodes: per-axis origins and
// extents. Extents on axes at or above the grid's dimensionality must be
// 1 (the grid constructors below guarantee this); a zero-extent box
// contains nothing.
type Box struct {
	Origin Point // lowest-coordinate corner
	Ext    Point // per-axis extents
}

// Volume returns the number of nodes covered by the box.
func (b Box) Volume() int {
	v := 1
	for i := 0; i < MaxDims; i++ {
		if b.Ext[i] <= 0 {
			return 0
		}
		v *= b.Ext[i]
	}
	return v
}

// Nodes returns the ids of the box's nodes that lie on g, in row-major
// order. Parts of the box hanging off the grid are skipped, which is how
// MC evaluates candidate allocations near machine edges.
func (g *Grid) Nodes(b Box) []int {
	return g.AppendNodes(make([]int, 0, b.Volume()), b)
}

// AppendNodes appends the ids of the box's on-grid nodes to ids in
// row-major order and returns the extended slice — the allocation-free
// variant of Nodes. The box is clipped to the grid per axis up front, so
// the walk emits whole axis-0 runs of dense ids with no per-cell
// containment test.
func (g *Grid) AppendNodes(ids []int, b Box) []int {
	var lo, hi Point
	for i := 0; i < g.nd; i++ {
		lo[i] = max(b.Origin[i], 0)
		hi[i] = min(b.Origin[i]+b.Ext[i], g.dim[i])
		if lo[i] >= hi[i] {
			return ids
		}
	}
	g.rangeWalk(lo, hi, Point{}, Point{}, true, func(lo, hi int) bool {
		for id := lo; id < hi; id++ {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}

// shellWalk is the walk behind ShellEach: the outer and inner bounds of
// shell k around the ext box centered on c are plain per-axis arithmetic
// (origin c - ext/2 shifted by k), so no Box values are built or copied
// per candidate — MC scores thousands of (center, shell) pairs per
// allocation and this walk is its inner loop.
func (g *Grid) shellWalk(c, ext Point, k int, emit func(lo, hi int) bool) {
	var lo, hi, inLo, inHi Point
	for i := 0; i < g.nd; i++ {
		base := c[i] - ext[i]/2
		lo[i] = max(base-k, 0)
		hi[i] = min(base+ext[i]+k, g.dim[i])
		if lo[i] >= hi[i] {
			return
		}
		inLo[i] = base - (k - 1)
		inHi[i] = base + ext[i] + (k - 1)
	}
	g.rangeWalk(lo, hi, inLo, inHi, k == 0, emit)
}

// rangeWalk emits the row-major axis-0 runs of the [lo, hi) region,
// skipping the [inLo, inHi) region unless innerEmpty.
func (g *Grid) rangeWalk(lo, hi, inLo, inHi Point, innerEmpty bool, emit func(lo, hi int) bool) {
	// Row odometer over axes 1..nd-1; axis 0 is emitted as runs.
	p := lo
	for {
		rowBase := 0
		rowInside := !innerEmpty
		for i := g.nd - 1; i >= 1; i-- {
			rowBase += p[i] * g.stride[i]
			if p[i] < inLo[i] || p[i] >= inHi[i] {
				rowInside = false
			}
		}
		if rowInside {
			// Emit [lo0, inLo0) and [inHi0, hi0), clipped.
			if l, h := lo[0], min(hi[0], inLo[0]); l < h {
				if !emit(rowBase+l, rowBase+h) {
					return
				}
			}
			if l, h := max(lo[0], inHi[0]), hi[0]; l < h {
				if !emit(rowBase+l, rowBase+h) {
					return
				}
			}
		} else {
			if !emit(rowBase+lo[0], rowBase+hi[0]) {
				return
			}
		}
		// Advance the row odometer.
		i := 1
		for ; i < g.nd; i++ {
			p[i]++
			if p[i] < hi[i] {
				break
			}
			p[i] = lo[i]
		}
		if i >= g.nd {
			return
		}
	}
}

// ShellEach calls fn with the id of every on-grid node of shell k around
// the box of active extents ext centered on c, in row-major order,
// stopping early when fn returns false. It reports whether the walk ran
// to completion. Shell 0 is the box itself, placed with c at its integer
// center cell (ext/2 from the origin on each axis, rounding down); shell
// k>0 is the boundary of the box grown by k on every side. This matches
// the growth rule of Mache et al.'s MC allocator, generalized to n
// dimensions (a ring in 2-D, a box surface in 3-D).
func (g *Grid) ShellEach(c, ext Point, k int, fn func(id int) bool) bool {
	done := true
	g.shellWalk(c, ext, k, func(lo, hi int) bool {
		for id := lo; id < hi; id++ {
			if !fn(id) {
				done = false
				return false
			}
		}
		return true
	})
	return done
}

// MaxShells returns an upper bound on the number of shells needed to
// cover the whole grid from any center. Growing by one node per side per
// shell, the largest extent always suffices.
func (g *Grid) MaxShells() int {
	n := 0
	for i := 0; i < g.nd; i++ {
		if g.dim[i] > n {
			n = g.dim[i]
		}
	}
	return n
}

// AppendRing appends the ids of grid nodes at exactly Manhattan distance
// r from c to ids, in row-major order. Torus wraparound is ignored, as
// in the original Gen-Alg gather: rings are clipped at machine edges.
// The 2-D case is flattened into the classic diamond loop (it is
// Gen-Alg's innermost gather); higher dimensions recurse per axis.
func (g *Grid) AppendRing(ids []int, c Point, r int) []int {
	if g.nd == 2 {
		w, h := g.dim[0], g.dim[1]
		for dy := -r; dy <= r; dy++ {
			y := c[1] + dy
			if y < 0 || y >= h {
				continue
			}
			dx := r - abs(dy)
			row := y * w
			if x := c[0] - dx; x >= 0 && x < w {
				ids = append(ids, row+x)
			}
			if dx > 0 {
				if x := c[0] + dx; x >= 0 && x < w {
					ids = append(ids, row+x)
				}
			}
		}
		return ids
	}
	return g.appendRingAxis(ids, c, g.nd-1, r)
}

// appendRingAxis distributes the remaining distance rem over axes
// axis..0, choosing per-axis offsets in ascending order so the overall
// enumeration is row-major. The recursion depth is bounded by MaxDims
// and every frame is value-typed, so the walk never allocates.
func (g *Grid) appendRingAxis(ids []int, c Point, axis, rem int) []int {
	if axis == 0 {
		if rem == 0 {
			if g.Contains(c) {
				ids = append(ids, g.ID(c))
			}
			return ids
		}
		x := c[0]
		if v := x - rem; v >= 0 && v < g.dim[0] {
			c[0] = v
			ids = append(ids, g.ID(c))
		}
		if v := x + rem; v >= 0 && v < g.dim[0] {
			c[0] = v
			ids = append(ids, g.ID(c))
		}
		return ids
	}
	orig := c[axis]
	for d := -rem; d <= rem; d++ {
		v := orig + d
		if v < 0 || v >= g.dim[axis] {
			continue
		}
		c[axis] = v
		ids = g.appendRingAxis(ids, c, axis-1, rem-abs(d))
	}
	return ids
}
