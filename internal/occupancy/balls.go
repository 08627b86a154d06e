package occupancy

import (
	"fmt"

	"meshalloc/internal/topo"
)

// Balls counts free processors in clipped Manhattan balls — the
// geometry of Gen-Alg's nearest-free gather. Torus wraparound is
// deliberately ignored, exactly as topo's rings ignore it.
//
// The machinery is one family of per-slice counters per axis: family a
// slices the grid at each coordinate of axis a and indexes the busy
// cells of that slice by the remaining axes. A ball cross-section
// restricted to a slice is an L1 ball of the remaining dimensionality —
// an interval on 2-D grids, a diamond on 3-D grids. Intervals are
// counted by a dense prefix sum per slice (two reads); diamonds become
// axis-aligned boxes under the 45-degree rotation (u, v) = (p+q, p-q),
// so each 3-D slice keeps a dense summed-area table over rotated
// coordinates (four reads) plus a family-wide static prefix table
// counting which rotated points are real cells (the rotated lattice has
// parity holes and machine-edge clips). As with Boxes, dense prefixes
// beat log-structured trees here because Gen-Alg issues hundreds of
// counts per allocation but only tens of updates.
//
// Only 2-D and 3-D grids are supported — NewBalls returns nil
// otherwise, and callers fall back to walking.
type Balls struct {
	g    *topo.Grid
	nd   int
	dim  [topo.MaxDims]int
	fams [3]fam
}

// fam is the per-slice counter family for one slicing axis.
type fam struct {
	p, q     int // remaining axes, ascending; q == -1 on 2-D grids
	np, nq   int
	s        int   // rotated extent np+nq-1 (3-D families only)
	planeLen int   // ints per slice in pref
	pref     []int // dense per-slice prefix sums over the remaining axes
	cells    []int // (s+1)^2 static prefix of real rotated cells, 3-D only
}

// NewBalls returns an empty ball index over g (every processor free),
// or nil when the grid's dimensionality is not 2 or 3.
func NewBalls(g *topo.Grid) *Balls {
	nd := g.ND()
	if nd != 2 && nd != 3 {
		return nil
	}
	b := &Balls{g: g, nd: nd}
	for i := 0; i < nd; i++ {
		b.dim[i] = g.Dim(i)
	}
	for a := 0; a < nd; a++ {
		f := &b.fams[a]
		f.p, f.q = -1, -1
		for i := 0; i < nd; i++ {
			if i == a {
				continue
			}
			if f.p < 0 {
				f.p = i
			} else {
				f.q = i
			}
		}
		f.np = b.dim[f.p]
		if nd == 2 {
			// pref[v*planeLen+i] counts busy cells of slice v with
			// remaining coordinate < i.
			f.planeLen = f.np + 1
			f.pref = make([]int, b.dim[a]*f.planeLen)
			continue
		}
		f.nq = b.dim[f.q]
		f.s = f.np + f.nq - 1
		// pref[v*planeLen+u*(s+1)+w] counts busy cells of slice v with
		// rotated coordinates below (u, w).
		f.planeLen = (f.s + 1) * (f.s + 1)
		f.pref = make([]int, b.dim[a]*f.planeLen)
		// Static rotated-cell prefix table, shared by every slice of the
		// family: cells[u*(s+1)+v] counts real cells with rotated
		// coordinates below (u, v).
		f.cells = make([]int, (f.s+1)*(f.s+1))
		w := f.s + 1
		for p := 0; p < f.np; p++ {
			for q := 0; q < f.nq; q++ {
				u, v := p+q, p-q+f.nq-1
				f.cells[(u+1)*w+v+1]++
			}
		}
		for u := 0; u <= f.s; u++ {
			for v := 0; v <= f.s; v++ {
				i := u*w + v
				if v > 0 {
					f.cells[i] += f.cells[i-1]
				}
				if u > 0 {
					f.cells[i] += f.cells[i-w]
					if v > 0 {
						f.cells[i] -= f.cells[i-w-1]
					}
				}
			}
		}
	}
	return b
}

// Take marks one processor busy.
func (b *Balls) Take(id int) { b.add(b.g.Coord(id), 1) }

// Release marks one processor free.
func (b *Balls) Release(id int) { b.add(b.g.Coord(id), -1) }

func (b *Balls) add(p topo.Point, d int) {
	for a := 0; a < b.nd; a++ {
		f := &b.fams[a]
		slice := f.pref[p[a]*f.planeLen:]
		if b.nd == 2 {
			for i := p[f.p] + 1; i < f.planeLen; i++ {
				slice[i] += d
			}
			continue
		}
		u, v := p[f.p]+p[f.q], p[f.p]-p[f.q]+f.nq-1
		w := f.s + 1
		for i := u + 1; i <= f.s; i++ {
			row := slice[i*w:]
			for j := v + 1; j <= f.s; j++ {
				row[j] += d
			}
		}
	}
}

// FreeInBall returns the number of free processors at Manhattan
// distance at most r from c, clipped at machine edges. A negative r
// counts zero.
func (b *Balls) FreeInBall(c topo.Point, r int) int {
	cur, _ := b.FreeInBall2(c, r, nil)
	return cur
}

// FreeInBall2 returns the free counts of the balls of radius r and
// r-1 around c in one pass over the slices along the last axis — the
// pair every ball-radius cutoff test needs. The radius-(r-1) count is
// summed slice by slice, and those per-slice counts are exactly what
// AddMarginal(ND()-1, c, r-1, m) adds; a non-nil m receives them, m[v]
// set (not added to) for every slice v the radius-r ball reaches, 0
// where the smaller ball misses it. A caller that scores the ball's
// members therefore gets the last axis's marginal with its cutoff
// count. The per-dimensionality loops are fused: Gen-Alg calls this for
// every candidate center, so the per-slice work must be a handful of
// reads, not a method call.
func (b *Balls) FreeInBall2(c topo.Point, r int, m []int) (cur, prev int) {
	if r < 0 {
		return 0, 0
	}
	if b.nd == 2 {
		f := &b.fams[1]
		cx, cy := c[0], c[1]
		for v, ve := max(cy-r, 0), min(cy+r, b.dim[1]-1); v <= ve; v++ {
			rad := r - abs(v-cy)
			row := f.pref[v*f.planeLen:]
			if lo, hi := max(cx-rad, 0), min(cx+rad+1, f.np); lo < hi {
				cur += hi - lo - (row[hi] - row[lo])
			}
			p := 0
			if lo, hi := max(cx-rad+1, 0), min(cx+rad, f.np); lo < hi {
				p = hi - lo - (row[hi] - row[lo])
			}
			prev += p
			if m != nil {
				m[v] = p
			}
		}
		return cur, prev
	}
	f := &b.fams[2]
	u0, v0 := c[f.p]+c[f.q], c[f.p]-c[f.q]+f.nq-1
	cz := c[2]
	for z, ze := max(cz-r, 0), min(cz+r, b.dim[2]-1); z <= ze; z++ {
		rad := r - abs(z-cz)
		slice := f.pref[z*f.planeLen:]
		cur += diamondFree(f, slice, u0, v0, rad)
		p := 0
		if rad > 0 {
			p = diamondFree(f, slice, u0, v0, rad-1)
		}
		prev += p
		if m != nil {
			m[z] = p
		}
	}
	return cur, prev
}

// diamondFree counts the free cells of one rotated clipped diamond of
// radius rad in a 3-D family slice.
func diamondFree(f *fam, slice []int, u0, v0, rad int) int {
	ulo, uhi := max(u0-rad, 0), min(u0+rad+1, f.s)
	vlo, vhi := max(v0-rad, 0), min(v0+rad+1, f.s)
	if ulo >= uhi || vlo >= vhi {
		return 0
	}
	w := f.s + 1
	a, b, c, d := uhi*w+vhi, ulo*w+vhi, uhi*w+vlo, ulo*w+vlo
	return f.cells[a] - f.cells[b] - f.cells[c] + f.cells[d] -
		(slice[a] - slice[b] - slice[c] + slice[d])
}

// AddMarginal accumulates the per-slice free counts of the ball of
// radius rad around c into m, indexed by the slice coordinate along
// axis: m[v] gains the free cells x with x[axis] == v whose distance
// from c over the remaining axes is at most rad - |v - c[axis]|, for
// every on-grid v the ball reaches. This is how Gen-Alg reconstructs a
// candidate set's coordinate marginal in one fused pass.
func (b *Balls) AddMarginal(axis int, c topo.Point, rad int, m []int) {
	if rad < 0 {
		return
	}
	f := &b.fams[axis]
	ca := c[axis]
	if b.nd == 2 {
		cp := c[f.p]
		for v, ve := max(ca-rad, 0), min(ca+rad, b.dim[axis]-1); v <= ve; v++ {
			rv := rad - abs(v-ca)
			lo, hi := max(cp-rv, 0), min(cp+rv+1, f.np)
			if lo >= hi {
				continue
			}
			row := f.pref[v*f.planeLen:]
			m[v] += hi - lo - (row[hi] - row[lo])
		}
		return
	}
	u0, v0 := c[f.p]+c[f.q], c[f.p]-c[f.q]+f.nq-1
	for v, ve := max(ca-rad, 0), min(ca+rad, b.dim[axis]-1); v <= ve; v++ {
		rv := rad - abs(v-ca)
		m[v] += diamondFree(f, f.pref[v*f.planeLen:], u0, v0, rv)
	}
}

// Audit checks every entry of every family against busy, the bitmap
// the index mirrors (indexed by node id), as Boxes.Audit does: 2-D
// slices are prefix rows, 3-D slices are summed-area tables over rotated
// coordinates whose second difference at a parity hole or clipped
// rotated point must be 0. Every family is checked, not only the one
// FreeInBall2 reads, because AddMarginal reads the others.
func (b *Balls) Audit(busy []bool) error {
	stride := [3]int{1, b.dim[0], b.dim[0] * b.dim[1]}
	for a := 0; a < b.nd; a++ {
		f := &b.fams[a]
		for v := 0; v < b.dim[a]; v++ {
			tab, first := f.pref[v*f.planeLen:(v+1)*f.planeLen], v*stride[a]
			if b.nd == 2 {
				if i, ok := rowDrift(tab, busy, first, stride[f.p]); !ok {
					return fmt.Errorf("occupancy: ball family %d slice %d entry %d disagrees with the busy bitmap", a, v, i)
				}
				continue
			}
			sp, sq := stride[f.p], stride[f.q]
			if u, w, ok := satDrift(tab, f.s, f.s, func(u, w int) bool {
				// (u, w) = (p+q, p-q+nq-1) is a cell only when p and q come
				// out whole and on the slice.
				twoP := u + w - (f.nq - 1)
				p, q := twoP/2, u-twoP/2
				if twoP < 0 || twoP%2 != 0 || p >= f.np || q < 0 || q >= f.nq {
					return false
				}
				return busy[first+p*sp+q*sq]
			}); !ok {
				return fmt.Errorf("occupancy: ball family %d slice %d entry (%d, %d) disagrees with the busy bitmap", a, v, u, w)
			}
		}
	}
	return nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
