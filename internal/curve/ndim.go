package curve

// Dimension-generic orderings. The 2-D Curve interface stays the
// package's primary vocabulary (and the 2-D constructions stay
// bit-identical); curves that also order n-dimensional grids implement
// DimCurve, which is what lets the Paging family run unchanged on the
// native 3-D machines of the ext-cube3d experiment.
//
// The n-D Hilbert curve is Skilling's transpose construction
// ("Programming the Hilbert curve", AIP 2004) — the standard
// multidimensional Hilbert indexing that the paper's Alber–Niedermeier
// reference generalizes — truncated from the enclosing power-of-two
// hypercube exactly as the 2-D curves are truncated in Figure 6.

import (
	"fmt"

	"meshalloc/internal/topo"
)

// DimCurve orders the nodes of an n-dimensional grid. OrderDims returns
// all nodes of the dims grid as dense axis-0-fastest ids (topo.Grid's id
// order), a permutation of [0, prod(dims)).
type DimCurve interface {
	OrderDims(dims []int) []int
}

// MaxCubeCells bounds the power-of-two cube a curve may walk. Hilbert,
// Moore, H-indexing and Z-order visit every cell of the smallest
// power-of-two cube enclosing the grid (the proj2d- forms, of the
// flattened plane), so a long thin grid that topo.CheckDims accepts,
// such as 65535x32, would cost 2^32 steps or more. 2^24 admits
// 2048x1024, 4096x512 and 256x128x64.
const MaxCubeCells = 1 << 24

// CheckDims reports why curve c cannot order the dims grid: a shape
// topo.CheckDims rejects, a dimensionality the curve has no
// construction for (H-indexing, Moore and optcurve are 2-D only), or
// an enclosing cube of more than MaxCubeCells cells.
func CheckDims(c Curve, dims []int) error {
	if err := topo.CheckDims(dims); err != nil {
		return err
	}
	if _, ok := c.(DimCurve); !ok && len(dims) != 2 {
		return fmt.Errorf("curve: %s cannot order a %d-D grid", c.Name(), len(dims))
	}
	side, nd := cube(c, dims)
	cells := 1
	for i := 0; i < nd; i++ {
		// side <= 2^21 and cells <= 2^24 here, so this cannot overflow.
		if cells *= side; cells > MaxCubeCells {
			return fmt.Errorf("curve: %s on %v walks a %d^%d-cell power-of-two cube, more than the bound of 2^24 cells",
				c.Name(), dims, side, nd)
		}
	}
	return nil
}

// cube returns the side and dimensionality of the power-of-two cube c
// walks to order the dims grid, or nd 0 when it walks none (row-major,
// the S-curve and optcurve order the grid's own cells).
func cube(c Curve, dims []int) (side, nd int) {
	switch c := c.(type) {
	case Projected:
		w, h := plane(dims)
		return cube(c.Inner, []int{w, h})
	case Hilbert, ZOrder, Moore, HIndexing:
		return nextPow2(maxDim(dims)), len(dims)
	}
	return 0, 0
}

// GridOrder returns the nodes of the dims grid in curve order: the
// classic 2-D ordering for two-dimensional grids (bit-identical to
// c.Order) and the curve's n-D construction otherwise. A grid that
// CheckDims rejects yields its error.
func GridOrder(c Curve, dims []int) ([]int, error) {
	if err := CheckDims(c, dims); err != nil {
		return nil, err
	}
	if len(dims) == 2 {
		return c.Order(dims[0], dims[1]), nil
	}
	return c.(DimCurve).OrderDims(dims), nil
}

// strides returns the dense-id strides of a dims grid (axis 0 fastest)
// and the total node count.
func strides(dims []int) ([]int, int) {
	s := make([]int, len(dims))
	size := 1
	for i, d := range dims {
		s[i] = size
		size *= d
	}
	return s, size
}

// maxDim returns the largest extent.
func maxDim(dims []int) int {
	m := 0
	for _, d := range dims {
		if d > m {
			m = d
		}
	}
	return m
}

// OrderDims implements DimCurve: the identity (axis-0-fastest) ordering.
func (RowMajor) OrderDims(dims []int) []int {
	_, size := strides(dims)
	order := make([]int, size)
	for i := range order {
		order[i] = i
	}
	return order
}

// OrderDims implements DimCurve: the n-D boustrophedon. The runs move
// along axis 0; each axis reverses direction whenever any higher axis
// advances, so consecutive cells are always grid-adjacent — the direct
// generalization of the 3-D snake the cube study used. For 2-D grids it
// delegates to Order, which picks the run direction by mesh shape.
func (c SCurve) OrderDims(dims []int) []int {
	if len(dims) == 2 {
		return c.Order(dims[0], dims[1])
	}
	st, size := strides(dims)
	nd := len(dims)
	order := make([]int, 0, size)
	// it holds per-axis iteration positions; the coordinate on axis i
	// runs ascending or descending depending on the parity of the number
	// of completed axis-i runs, which is the mixed-radix value of the
	// iteration positions of all higher axes.
	it := make([]int, nd)
	for {
		id := 0
		for i := 0; i < nd; i++ {
			runs := 0
			mult := 1
			for j := i + 1; j < nd; j++ {
				runs += it[j] * mult
				mult *= dims[j]
			}
			v := it[i]
			if runs%2 == 1 {
				v = dims[i] - 1 - v
			}
			id += v * st[i]
		}
		order = append(order, id)
		i := 0
		for ; i < nd; i++ {
			it[i]++
			if it[i] < dims[i] {
				break
			}
			it[i] = 0
		}
		if i == nd {
			return order
		}
	}
}

// OrderDims implements DimCurve: the n-D Hilbert curve via Skilling's
// transpose construction, truncated from the enclosing power-of-two
// hypercube. For 2-D grids it delegates to Order: the classic 2-D
// construction gives the same order (TestHilbertD2XYMatchesSkilling)
// several times faster, and the paper's meshes build their Hilbert
// orders at every simulation's set-up.
func (h Hilbert) OrderDims(dims []int) []int {
	if len(dims) == 2 {
		return h.Order(dims[0], dims[1])
	}
	nd := len(dims)
	st, size := strides(dims)
	n := nextPow2(maxDim(dims))
	total := 1
	for i := 0; i < nd; i++ {
		total *= n
	}
	order := make([]int, 0, size)
	for d := 0; d < total; d++ {
		p := HilbertPoint(n, nd, d)
		id, ok := 0, true
		for i := 0; i < nd; i++ {
			if p[i] >= dims[i] {
				ok = false
				break
			}
			id += p[i] * st[i]
		}
		if ok {
			order = append(order, id)
		}
	}
	return order
}

// HilbertPoint converts a distance along the nd-dimensional Hilbert
// curve of an n^nd hypercube (n a power of two, nd <= topo.MaxDims) to
// coordinates, using Skilling's transpose algorithm. Unused axes of the
// returned point are zero.
func HilbertPoint(n, nd, d int) topo.Point {
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	// Untranspose the index: bit lvl of axis i comes from bit
	// (nd*lvl + (nd-1-i)) of d, most-significant level first.
	var x [topo.MaxDims]uint32
	for lvl := 0; lvl < b; lvl++ {
		for i := 0; i < nd; i++ {
			if d>>(uint(nd*lvl+(nd-1-i)))&1 == 1 {
				x[i] |= 1 << uint(lvl)
			}
		}
	}
	// Gray decode.
	t := x[nd-1] >> 1
	for i := nd - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != uint32(n); q <<= 1 {
		p := q - 1
		for i := nd - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p // invert low bits of x[0]
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t // exchange low bits of x[0] and x[i]
			}
		}
	}
	var out topo.Point
	for i := 0; i < nd; i++ {
		out[i] = int(x[i])
	}
	return out
}

// OrderDims implements DimCurve: the n-D Morton (Z-order) curve, ranks
// interleaving the coordinate bits with axis 0 in the lowest position,
// truncated from the enclosing power-of-two hypercube.
func (z ZOrder) OrderDims(dims []int) []int {
	nd := len(dims)
	st, size := strides(dims)
	n := nextPow2(maxDim(dims))
	total := 1
	for i := 0; i < nd; i++ {
		total *= n
	}
	order := make([]int, 0, size)
	for d := 0; d < total; d++ {
		id, ok := 0, true
		for i := 0; i < nd; i++ {
			v := deinterleaveN(d>>uint(i), nd)
			if v >= dims[i] {
				ok = false
				break
			}
			id += v * st[i]
		}
		if ok {
			order = append(order, id)
		}
	}
	return order
}

// deinterleaveN extracts every nd-th bit of v, starting at bit 0.
func deinterleaveN(v, nd int) int {
	out := 0
	for bit := 0; v != 0; bit++ {
		out |= (v & 1) << uint(bit)
		v >>= uint(nd)
	}
	return out
}

// Projected lifts a 2-D curve onto higher-dimensional grids by
// projection: axes 1..n-1 are unfolded into one long y axis, the inner
// curve orders the resulting 2-D plane, and the ordering is mapped back
// to the full grid. This is exactly the strategy the paper applied to
// CPlant — treat the physically 3-D machine as a 2-D mesh for
// allocation — so comparing "proj2d-hilbert" against native "hilbert" on
// a 3-D grid measures the contention signal the projection loses. On
// 2-D grids the projection is the identity.
type Projected struct {
	Inner Curve
}

// ProjectedPrefix is the spec prefix naming projected curves, e.g.
// "proj2d-hilbert".
const ProjectedPrefix = "proj2d-"

// Name implements Curve.
func (p Projected) Name() string { return ProjectedPrefix + p.Inner.Name() }

// Order implements Curve: in 2-D the projection is the identity.
func (p Projected) Order(w, h int) []int { return p.Inner.Order(w, h) }

// OrderDims implements DimCurve.
func (p Projected) OrderDims(dims []int) []int {
	if len(dims) == 2 {
		return p.Order(dims[0], dims[1])
	}
	st, _ := strides(dims)
	w, flatH := plane(dims)
	flat := p.Inner.Order(w, flatH)
	order := make([]int, len(flat))
	for i, fid := range flat {
		x, yy := fid%w, fid/w
		// Unfold yy back into axes 1..n-1 (axis 1 fastest), mirroring the
		// dense id layout.
		id := x * st[0]
		for a := 1; a < len(dims); a++ {
			id += (yy % dims[a]) * st[a]
			yy /= dims[a]
		}
		order[i] = id
	}
	return order
}

// plane returns the w x h plane a projected curve orders: axis 0 by
// axes 1..n-1 unfolded into one.
func plane(dims []int) (w, h int) {
	h = 1
	for _, d := range dims[1:] {
		h *= d
	}
	return dims[0], h
}
