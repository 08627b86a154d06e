// Package curve implements the mesh linearizations ("page orderings") used
// by the Paging / one-dimensional-reduction allocators: row-major, the
// boustrophedon S-curve, the Hilbert space-filling curve, and the
// H-indexing of Niedermeier, Reinhardt and Sanders.
//
// Hilbert and H-indexing are defined on 2^k x 2^k squares; for other mesh
// shapes they are truncated from the enclosing power-of-two square exactly
// as in the paper (Figure 6), which introduces rank gaps along the
// truncation edges.
package curve

import (
	"fmt"
	"sort"
	"strings"
)

// Curve produces an ordering of the nodes of a w x h mesh.
type Curve interface {
	// Name returns the curve's registry name, e.g. "hilbert".
	Name() string
	// Order returns all w*h row-major node ids in curve order. The
	// result is a permutation of [0, w*h).
	Order(w, h int) []int
}

// Ranks inverts an ordering: ranks[id] is the position of node id along
// the curve. It panics if order is not a permutation, since a malformed
// curve is a programming error.
func Ranks(order []int) []int {
	ranks := make([]int, len(order))
	for i := range ranks {
		ranks[i] = -1
	}
	for pos, id := range order {
		if id < 0 || id >= len(order) || ranks[id] != -1 {
			panic(fmt.Sprintf("curve: order is not a permutation (id %d at position %d)", id, pos))
		}
		ranks[id] = pos
	}
	return ranks
}

// appendIn appends the row-major id of cell (x, y) to ids when the cell
// lies on the w x h mesh, and drops it otherwise. This implements the
// truncation of a power-of-two curve to an arbitrary mesh.
func appendIn(ids []int, x, y, w, h int) []int {
	if x < w && y < h {
		ids = append(ids, y*w+x)
	}
	return ids
}

// nextPow2 returns the smallest power of two >= n (and >= 2).
func nextPow2(n int) int {
	p := 2
	for p < n {
		p *= 2
	}
	return p
}

// ByName returns the curve registered under name. Recognized names:
// "rowmajor", "scurve", "scurve-long", "hilbert", "hindex", "zorder",
// "moore", and "proj2d-<name>" for the 2-D projection of any of them
// onto higher-dimensional grids.
func ByName(name string) (Curve, error) {
	if rest, ok := strings.CutPrefix(name, ProjectedPrefix); ok {
		inner, err := ByName(rest)
		if err != nil {
			return nil, err
		}
		return Projected{Inner: inner}, nil
	}
	switch name {
	case "rowmajor":
		return RowMajor{}, nil
	case "scurve":
		return SCurve{}, nil
	case "scurve-long":
		return SCurve{LongDirection: true}, nil
	case "hilbert":
		return Hilbert{}, nil
	case "hindex":
		return HIndexing{}, nil
	case "zorder":
		return ZOrder{}, nil
	case "moore":
		return Moore{}, nil
	default:
		return nil, fmt.Errorf("curve: unknown curve %q", name)
	}
}

// All returns the registry names of every available curve.
func All() []string {
	names := []string{"rowmajor", "scurve", "scurve-long", "hilbert", "hindex", "zorder", "moore"}
	sort.Strings(names)
	return names
}

// RowMajor orders nodes row by row, left to right. It is the simplest
// page ordering considered by Lo et al. and serves as a baseline.
type RowMajor struct{}

// Name implements Curve.
func (RowMajor) Name() string { return "rowmajor" }

// Order implements Curve.
func (r RowMajor) Order(w, h int) []int { return r.OrderDims([]int{w, h}) }

// SCurve is the boustrophedon ("snake") ordering. Following the paper, the
// long straight runs of the curve move along the mesh's shorter dimension
// by default ("quick simulations seemed to indicate that the short
// direction is better"); LongDirection flips that choice for ablation.
type SCurve struct {
	// LongDirection, when set, makes the runs follow the longer mesh
	// dimension instead of the shorter one.
	LongDirection bool
}

// Name implements Curve.
func (c SCurve) Name() string {
	if c.LongDirection {
		return "scurve-long"
	}
	return "scurve"
}

// Order implements Curve.
func (c SCurve) Order(w, h int) []int {
	runsAlongX := w <= h // runs along the shorter dimension
	if c.LongDirection {
		runsAlongX = !runsAlongX
	}
	order := make([]int, 0, w*h)
	if runsAlongX {
		for y := 0; y < h; y++ {
			if y%2 == 0 {
				for x := 0; x < w; x++ {
					order = append(order, y*w+x)
				}
			} else {
				for x := w - 1; x >= 0; x-- {
					order = append(order, y*w+x)
				}
			}
		}
	} else {
		for x := 0; x < w; x++ {
			if x%2 == 0 {
				for y := 0; y < h; y++ {
					order = append(order, y*w+x)
				}
			} else {
				for y := h - 1; y >= 0; y-- {
					order = append(order, y*w+x)
				}
			}
		}
	}
	return order
}

// Hilbert is the Hilbert space-filling curve, truncated from the enclosing
// power-of-two square for non-power-of-two or non-square meshes.
type Hilbert struct{}

// Name implements Curve.
func (Hilbert) Name() string { return "hilbert" }

// Order implements Curve.
func (Hilbert) Order(w, h int) []int {
	n := nextPow2(max(w, h))
	ids := make([]int, 0, w*h)
	for d := 0; d < n*n; d++ {
		x, y := hilbertD2XY(n, d)
		ids = appendIn(ids, x, y, w, h)
	}
	return ids
}

// hilbertD2XY converts a distance along the Hilbert curve of an n x n grid
// (n a power of two) to grid coordinates, using the classic bit-twiddling
// construction. It equals HilbertPoint(n, 2, d) but runs several times
// faster, and every 2-D Hilbert order is built from it.
func hilbertD2XY(n, d int) (x, y int) {
	t := d
	for s := 1; s < n; s *= 2 {
		rx := 1 & (t / 2)
		ry := 1 & (t ^ rx)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// Moore is the Moore curve: the closed-loop variant of the Hilbert curve,
// built from four Hilbert sub-curves arranged in a cycle. Like
// H-indexing it is a Hamiltonian cycle of the power-of-two square, which
// makes it a useful control when studying whether H-indexing's behaviour
// comes from being a cycle or from its triangle structure.
type Moore struct{}

// Name implements Curve.
func (Moore) Name() string { return "moore" }

// Order implements Curve.
func (Moore) Order(w, h int) []int {
	n := nextPow2(max(w, h))
	ids := make([]int, 0, w*h)
	if n == 2 {
		for _, c := range [4][2]int{{0, 0}, {0, 1}, {1, 1}, {1, 0}} {
			ids = appendIn(ids, c[0], c[1], w, h)
		}
		return ids
	}
	s := n / 2
	// Four Hilbert curves of size s chained into a cycle. The canonical
	// Hilbert curve runs (0,0) -> (s-1,0); rotating it counterclockwise
	// puts both endpoints on the right edge running bottom-to-top, and
	// clockwise on the left edge running top-to-bottom. The left column
	// of quadrants climbs, the right column descends, and the four
	// junctions (and the closing edge) are all unit steps.
	ccw := func(x, y int) (int, int) { return s - 1 - y, x }
	cw := func(x, y int) (int, int) { return y, s - 1 - x }
	quadrants := []struct {
		rot        func(int, int) (int, int)
		offX, offY int
	}{
		{ccw, 0, 0}, // bottom-left: (s-1,0) up to (s-1,s-1)
		{ccw, 0, s}, // top-left: continues up the center line
		{cw, s, s},  // top-right: (s,2s-1) down to (s,s)
		{cw, s, 0},  // bottom-right: down to (s,0), closing next to (s-1,0)
	}
	for _, q := range quadrants {
		for d := 0; d < s*s; d++ {
			x, y := hilbertD2XY(s, d)
			rx, ry := q.rot(x, y)
			ids = appendIn(ids, rx+q.offX, ry+q.offY, w, h)
		}
	}
	return ids
}

// ZOrder is the Morton (Z-order) curve: ranks interleave the bits of the
// coordinates. Unlike Hilbert and H-indexing it is not a Hamiltonian
// path — consecutive ranks can jump — but it clusters well and is the
// cheapest recursively-local ordering, a classic alternative page
// ordering for the Paging family.
type ZOrder struct{}

// Name implements Curve.
func (ZOrder) Name() string { return "zorder" }

// Order implements Curve.
func (z ZOrder) Order(w, h int) []int { return z.OrderDims([]int{w, h}) }
