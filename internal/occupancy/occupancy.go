// Package occupancy maintains incremental indexes over an allocator's
// busy bitmap so that MC-style shell scoring and Gen-Alg's nearest-free
// search can *count* candidate allocations instead of gathering them.
//
// Two structures are provided:
//
//   - Boxes answers "free processors inside this clipped axis-aligned
//     box" from dense prefix sums over the busy cells: per-row prefix
//     sums in 1-D and 2-D (O(n) updates, two sequential reads per row of
//     the box), per-plane summed-area tables beyond (O(n^2) updates,
//     four reads per plane). Queries outnumber updates by the candidate
//     count times the shell count, which makes trading update cost for
//     query cost a large net win; see DESIGN.md ("The occupancy index")
//     for the measurements.
//
//   - Balls (balls.go) answers "free processors at Manhattan distance
//     at most r", the geometry of Gen-Alg's nearest-free gather, plus
//     the per-slice cross-section counts Gen-Alg needs to reconstruct
//     exact pairwise-distance scores without touching the member
//     processors.
//
// Both indexes are pure counters: they never own the busy state, they
// mirror it. The alloc package's tracker feeds every take/release into
// them, and equivalence tests in internal/alloc pin the counted scores
// to the walked ones bit for bit.
package occupancy

import (
	"fmt"

	"meshalloc/internal/topo"
)

// Boxes is an incremental free-count index over axis-aligned boxes of
// one machine. The zero value is not usable; construct with NewBoxes.
type Boxes struct {
	g  *topo.Grid
	nd int
	n  [topo.MaxDims]int // per-axis extents
	// nd <= 2: per-row prefix sums over axis 0. rows[y*prow+x] counts
	// busy cells in row y with coordinate < x.
	rows []int
	prow int // ints per row: n[0]+1
	// nd >= 3: per-plane summed-area tables, one plane per (z, w) with z
	// fastest. planes[(w*n[2]+z)*pplane+y*prow+x] counts busy cells in
	// plane (z, w) with coordinates < (x, y).
	planes []int
	pplane int // ints per plane: (n[0]+1)*(n[1]+1)
}

// NewBoxes returns an empty box index over g (every processor free).
func NewBoxes(g *topo.Grid) *Boxes {
	b := &Boxes{g: g, nd: g.ND()}
	for i := 0; i < b.nd; i++ {
		b.n[i] = g.Dim(i)
	}
	for i := b.nd; i < topo.MaxDims; i++ {
		b.n[i] = 1
	}
	b.prow = b.n[0] + 1
	if b.nd <= 2 {
		b.rows = make([]int, b.n[1]*b.prow)
	} else {
		b.pplane = b.prow * (b.n[1] + 1)
		b.planes = make([]int, b.n[2]*b.n[3]*b.pplane)
	}
	return b
}

// Take marks one processor busy.
func (b *Boxes) Take(id int) { b.add(b.g.Coord(id), 1) }

// Release marks one processor free.
func (b *Boxes) Release(id int) { b.add(b.g.Coord(id), -1) }

// add applies a +-1 point update at p.
func (b *Boxes) add(p topo.Point, d int) {
	if b.nd <= 2 {
		row := b.rows[p[1]*b.prow:]
		for i := p[0] + 1; i < b.prow; i++ {
			row[i] += d
		}
		return
	}
	plane := b.planes[(p[3]*b.n[2]+p[2])*b.pplane:]
	for j := p[1] + 1; j <= b.n[1]; j++ {
		row := plane[j*b.prow:]
		for i := p[0] + 1; i < b.prow; i++ {
			row[i] += d
		}
	}
}

// BusyIn returns the number of busy processors in the half-open box
// [lo, hi), which must already be clipped to the grid (topo.GrownBounds
// produces exactly this form).
func (b *Boxes) BusyIn(lo, hi topo.Point) int {
	s := 0
	switch {
	case b.nd <= 2:
		x0, x1 := lo[0], hi[0]
		for base := lo[1] * b.prow; base < hi[1]*b.prow; base += b.prow {
			s += b.rows[base+x1] - b.rows[base+x0]
		}
	case b.nd == 3:
		a, c, d, e := b.corners(lo, hi)
		for base := lo[2] * b.pplane; base < hi[2]*b.pplane; base += b.pplane {
			s += b.planes[base+a] - b.planes[base+c] - b.planes[base+d] + b.planes[base+e]
		}
	default:
		// 4-D stacks one block of n[2] planes per axis-3 coordinate.
		a, c, d, e := b.corners(lo, hi)
		for w := lo[3]; w < hi[3]; w++ {
			off := w * b.n[2] * b.pplane
			for base := off + lo[2]*b.pplane; base < off+hi[2]*b.pplane; base += b.pplane {
				s += b.planes[base+a] - b.planes[base+c] - b.planes[base+d] + b.planes[base+e]
			}
		}
	}
	return s
}

// corners returns the in-plane offsets of the summed-area corners of
// the [lo, hi) rectangle over axes 0 and 1.
func (b *Boxes) corners(lo, hi topo.Point) (a, c, d, e int) {
	return hi[1]*b.prow + hi[0], lo[1]*b.prow + hi[0], hi[1]*b.prow + lo[0], lo[1]*b.prow + lo[0]
}

// FreeIn returns the number of free processors in the half-open clipped
// box [lo, hi): the clipped volume minus the busy count.
func (b *Boxes) FreeIn(lo, hi topo.Point) int {
	return topo.BoxVolume(lo, hi) - b.BusyIn(lo, hi)
}

// Audit checks every entry of the index against busy, the bitmap it
// mirrors (indexed by node id): each row prefix starts at 0 and steps by
// the busy bit of the cell it adds, and each summed-area plane is 0
// along its low edges with every second difference equal to its cell's
// busy bit. That pins each entry to its exact prefix count, so one
// drifted interior entry fails even when every whole-machine count
// still agrees.
func (b *Boxes) Audit(busy []bool) error {
	if b.nd <= 2 {
		for y := 0; y < b.n[1]; y++ {
			if x, ok := rowDrift(b.rows[y*b.prow:(y+1)*b.prow], busy, y*b.n[0], 1); !ok {
				return fmt.Errorf("occupancy: box row %d entry %d disagrees with the busy bitmap", y, x)
			}
		}
		return nil
	}
	area := b.n[0] * b.n[1]
	for pl := 0; pl*b.pplane < len(b.planes); pl++ {
		cells := busy[pl*area:]
		if y, x, ok := satDrift(b.planes[pl*b.pplane:(pl+1)*b.pplane], b.n[1], b.n[0], func(y, x int) bool {
			return cells[y*b.n[0]+x]
		}); !ok {
			return fmt.Errorf("occupancy: box plane %d entry (%d, %d) disagrees with the busy bitmap", pl, x, y)
		}
	}
	return nil
}

// rowDrift returns the first entry of the prefix row that is not the
// busy count of the cells before it, or ok when every entry is: row[0]
// is 0, and row[i+1]-row[i] is the busy bit of cell i, which is
// busy[first+i*stride].
func rowDrift(row []int, busy []bool, first, stride int) (i int, ok bool) {
	if row[0] != 0 {
		return 0, false
	}
	for i := 1; i < len(row); i++ {
		if row[i]-row[i-1] != bit(busy[first+(i-1)*stride]) {
			return i, false
		}
	}
	return 0, true
}

// satDrift returns the first entry of the summed-area table tab (rows+1
// rows of cols+1 entries) that is not the busy count of the cells below
// and left of it, or ok when every entry is: the low edges hold 0, and
// each second difference is bit(busy(r, c)) for the cell it adds.
func satDrift(tab []int, rows, cols int, busy func(r, c int) bool) (r, c int, ok bool) {
	w := cols + 1
	for c := 0; c < w; c++ {
		if tab[c] != 0 {
			return 0, c, false
		}
	}
	for r := 0; r < rows; r++ {
		below, row := tab[r*w:(r+1)*w], tab[(r+1)*w:(r+2)*w]
		if row[0] != 0 {
			return r + 1, 0, false
		}
		for c := 0; c < cols; c++ {
			if row[c+1]-below[c+1]-row[c]+below[c] != bit(busy(r, c)) {
				return r + 1, c + 1, false
			}
		}
	}
	return 0, 0, true
}

func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}
