package curve

import (
	"strings"
	"testing"

	"meshalloc/internal/topo"
)

func isPermutationOfSize(t *testing.T, order []int, n int) {
	t.Helper()
	if len(order) != n {
		t.Fatalf("order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, id := range order {
		if id < 0 || id >= n || seen[id] {
			t.Fatalf("order not a permutation at id %d", id)
		}
		seen[id] = true
	}
}

func TestOrderDimsArePermutations(t *testing.T) {
	dimsCases := [][]int{{4, 4, 4}, {3, 5, 2}, {8, 8, 8}, {2, 3, 4, 2}, {5, 7}}
	for _, c := range []Curve{RowMajor{}, SCurve{}, Hilbert{}, ZOrder{}, Projected{Inner: Hilbert{}}, Projected{Inner: SCurve{}}} {
		dc := c.(DimCurve)
		for _, dims := range dimsCases {
			size := 1
			for _, d := range dims {
				size *= d
			}
			isPermutationOfSize(t, dc.OrderDims(dims), size)
		}
	}
}

func TestOrderDims2DMatchesOrder(t *testing.T) {
	// The n-D constructions must collapse to the classic 2-D orderings on
	// two-dimensional grids, keeping every existing result bit-identical.
	for _, c := range []Curve{RowMajor{}, SCurve{}, Hilbert{}, ZOrder{}} {
		dc := c.(DimCurve)
		for _, wh := range [][2]int{{8, 8}, {16, 22}, {5, 3}} {
			a := c.Order(wh[0], wh[1])
			b := dc.OrderDims([]int{wh[0], wh[1]})
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s %v: OrderDims diverges from Order at rank %d", c.Name(), wh, i)
				}
			}
		}
	}
}

// isHamiltonianPath checks that order visits every node of dims once,
// each step to a grid neighbour.
func isHamiltonianPath(t *testing.T, name string, dims, order []int) {
	t.Helper()
	g := topo.New(dims)
	isPermutationOfSize(t, order, g.Size())
	for i := 1; i < len(order); i++ {
		if g.Dist(order[i-1], order[i]) != 1 {
			t.Fatalf("%s %v breaks adjacency at rank %d", name, dims, i)
		}
	}
}

func TestSnakeNDIsHamiltonianPath(t *testing.T) {
	dims := []int{3, 4, 5, 2}
	isHamiltonianPath(t, "snake", dims, SCurve{}.OrderDims(dims))
}

func TestHilbertNDCubeIsHamiltonianPath(t *testing.T) {
	dims := []int{8, 8, 8}
	isHamiltonianPath(t, "hilbert", dims, Hilbert{}.OrderDims(dims))
}

// The 3-D tests below pin the cases the self-contained 3-D stack
// checked before ext-cube moved onto the n-D curves.

func TestSnake3IsHamiltonianPath(t *testing.T) {
	for _, dims := range [][]int{{2, 2, 2}, {4, 4, 4}, {3, 5, 2}, {4, 3, 6}} {
		isHamiltonianPath(t, "snake", dims, SCurve{}.OrderDims(dims))
	}
}

func TestHilbert3CubeIsHamiltonianPath(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		dims := []int{n, n, n}
		isHamiltonianPath(t, "hilbert", dims, Hilbert{}.OrderDims(dims))
	}
}

func TestHilbert3TruncatedIsPermutation(t *testing.T) {
	isPermutationOfSize(t, Hilbert{}.OrderDims([]int{3, 5, 4}), 3*5*4)
}

// legacySnake3 and legacyHilbert3 are literal transcriptions of the
// self-contained 3-D constructions that preceded the n-D curves. Ids
// are dense in x-fastest order, as on topo.Grid.

func legacySnake3(w, h, d int) []int {
	order := make([]int, 0, w*h*d)
	for z := 0; z < d; z++ {
		for yi := 0; yi < h; yi++ {
			y := yi
			if z%2 == 1 {
				y = h - 1 - yi
			}
			for xi := 0; xi < w; xi++ {
				x := xi
				if (yi+z*h)%2 == 1 {
					x = w - 1 - xi
				}
				order = append(order, (z*h+y)*w+x)
			}
		}
	}
	return order
}

func legacyHilbert3(w, h, d int) []int {
	point := func(n, idx int) [3]int {
		const dims = 3
		b := 0
		for 1<<uint(b) < n {
			b++
		}
		var x [dims]uint32
		for lvl := 0; lvl < b; lvl++ {
			for i := 0; i < dims; i++ {
				if idx>>(uint(dims*lvl+(dims-1-i)))&1 == 1 {
					x[i] |= 1 << uint(lvl)
				}
			}
		}
		t := x[dims-1] >> 1
		for i := dims - 1; i > 0; i-- {
			x[i] ^= x[i-1]
		}
		x[0] ^= t
		for q := uint32(2); q != uint32(n); q <<= 1 {
			p := q - 1
			for i := dims - 1; i >= 0; i-- {
				if x[i]&q != 0 {
					x[0] ^= p
				} else {
					t := (x[0] ^ x[i]) & p
					x[0] ^= t
					x[i] ^= t
				}
			}
		}
		return [3]int{int(x[0]), int(x[1]), int(x[2])}
	}
	n := 2
	for n < w || n < h || n < d {
		n *= 2
	}
	order := make([]int, 0, w*h*d)
	for idx := 0; idx < n*n*n; idx++ {
		p := point(n, idx)
		if p[0] < w && p[1] < h && p[2] < d {
			order = append(order, (p[2]*h+p[1])*w+p[0])
		}
	}
	return order
}

// TestOrderDims3DMatchesLegacy pins the n-D snake and Hilbert curves on
// 3-D grids, truncated ones included, to the legacy constructions.
func TestOrderDims3DMatchesLegacy(t *testing.T) {
	for _, dims := range [][]int{{2, 2, 2}, {4, 4, 4}, {8, 8, 8}, {3, 5, 2}, {4, 3, 6}, {5, 7, 3}} {
		w, h, d := dims[0], dims[1], dims[2]
		for _, tc := range []struct {
			name      string
			got, want []int
		}{
			{"snake", SCurve{}.OrderDims(dims), legacySnake3(w, h, d)},
			{"hilbert", Hilbert{}.OrderDims(dims), legacyHilbert3(w, h, d)},
		} {
			if len(tc.got) != len(tc.want) {
				t.Fatalf("%s %v: length %d vs legacy %d", tc.name, dims, len(tc.got), len(tc.want))
			}
			for i := range tc.got {
				if tc.got[i] != tc.want[i] {
					t.Fatalf("%s %v diverges from legacy at rank %d: %d vs %d",
						tc.name, dims, i, tc.got[i], tc.want[i])
				}
			}
		}
	}
}

// hilbertIndex is the inverse of HilbertPoint: it returns the distance
// along the nd-dimensional Hilbert curve of the n^nd hypercube at which
// the curve visits p. hilbertIndex(n, nd, HilbertPoint(n, nd, d)) == d
// for every d in [0, n^nd) — the bijectivity the tests below pin.
func hilbertIndex(n, nd int, p topo.Point) int {
	var x [topo.MaxDims]uint32
	for i := 0; i < nd; i++ {
		x[i] = uint32(p[i])
	}
	// Inverse undo: reapply the excess work top-down.
	for q := uint32(n) / 2; q > 1; q >>= 1 {
		pmask := q - 1
		for i := 0; i < nd; i++ {
			if x[i]&q != 0 {
				x[0] ^= pmask
			} else {
				t := (x[0] ^ x[i]) & pmask
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < nd; i++ {
		x[i] ^= x[i-1]
	}
	t := uint32(0)
	for q := uint32(n) / 2; q > 1; q >>= 1 {
		if x[nd-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < nd; i++ {
		x[i] ^= t
	}
	// Transpose back to the index.
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	d := 0
	for lvl := 0; lvl < b; lvl++ {
		for i := 0; i < nd; i++ {
			if x[i]>>uint(lvl)&1 == 1 {
				d |= 1 << uint(nd*lvl+(nd-1-i))
			}
		}
	}
	return d
}

func TestHilbertIndexInvertsPointExhaustive(t *testing.T) {
	for _, tc := range []struct{ n, nd int }{{2, 2}, {4, 2}, {8, 2}, {2, 3}, {4, 3}, {8, 3}, {2, 4}, {4, 4}} {
		total := 1
		for i := 0; i < tc.nd; i++ {
			total *= tc.n
		}
		for d := 0; d < total; d++ {
			p := HilbertPoint(tc.n, tc.nd, d)
			for i := 0; i < tc.nd; i++ {
				if p[i] < 0 || p[i] >= tc.n {
					t.Fatalf("n=%d nd=%d d=%d: coordinate %v off the cube", tc.n, tc.nd, d, p)
				}
			}
			if back := hilbertIndex(tc.n, tc.nd, p); back != d {
				t.Fatalf("n=%d nd=%d: HilbertIndex(HilbertPoint(%d)) = %d", tc.n, tc.nd, d, back)
			}
		}
	}
}

func TestProjectedUnfoldsZIntoY(t *testing.T) {
	// On a 2x2x2 grid the projection orders the unfolded 2x4 plane; cell
	// (x, yy) maps back to y = yy%2, z = yy/2.
	order := Projected{Inner: RowMajor{}}.OrderDims([]int{2, 2, 2})
	want := []int{0, 1, 2, 3, 4, 5, 6, 7} // row-major unfold is the identity
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("projected rowmajor = %v", order)
		}
	}
	// A projected snake serpentines within the unfolded plane: rank 2
	// visits (1, y=1, z=0), not (0, y=0, z=1).
	snake := Projected{Inner: SCurve{LongDirection: true}}.OrderDims([]int{2, 2, 2})
	isPermutationOfSize(t, snake, 8)
}

// FuzzHilbertNDRoundTrip fuzzes the bijectivity of the n-D Hilbert
// indexing: index -> coordinate -> index must round-trip on 2-D, 3-D and
// 4-D power-of-two cubes of any level, the property that makes the curve
// a valid page ordering on every machine the simulator can build.
func FuzzHilbertNDRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint32(0))
	f.Add(uint8(2), uint8(2), uint32(9))
	f.Add(uint8(3), uint8(3), uint32(500))
	f.Add(uint8(4), uint8(3), uint32(4095))
	f.Add(uint8(5), uint8(4), uint32(1<<19))
	f.Fuzz(func(t *testing.T, bitsRaw, ndRaw uint8, idxRaw uint32) {
		bits := int(bitsRaw)%5 + 1            // cube side 2..32
		nd := int(ndRaw)%(topo.MaxDims-1) + 2 // 2..MaxDims dimensions
		n := 1 << uint(bits)
		total := 1
		for i := 0; i < nd; i++ {
			total *= n
		}
		d := int(idxRaw) % total
		p := HilbertPoint(n, nd, d)
		for i := 0; i < nd; i++ {
			if p[i] < 0 || p[i] >= n {
				t.Fatalf("n=%d nd=%d d=%d: coordinate %v off the cube", n, nd, d, p)
			}
		}
		for i := nd; i < topo.MaxDims; i++ {
			if p[i] != 0 {
				t.Fatalf("unused axis %d nonzero in %v", i, p)
			}
		}
		if back := hilbertIndex(n, nd, p); back != d {
			t.Fatalf("n=%d nd=%d: round-trip %d -> %v -> %d", n, nd, d, p, back)
		}
		// Adjacent indices map to grid-adjacent cells (unit Manhattan
		// step) — the continuity that distinguishes Hilbert from Z-order.
		if d+1 < total {
			q := HilbertPoint(n, nd, d+1)
			dist := 0
			for i := 0; i < nd; i++ {
				dd := p[i] - q[i]
				if dd < 0 {
					dd = -dd
				}
				dist += dd
			}
			if dist != 1 {
				t.Fatalf("n=%d nd=%d: step %d->%d jumps distance %d", n, nd, d, d+1, dist)
			}
		}
	})
}

// TestGridOrderRejectsOversizedCube: 65535x32x1x1 passes topo.CheckDims,
// but Hilbert and Z-order would walk its enclosing 65536^4 cube, a cell
// count that overflows int. GridOrder must refuse the grid with an error
// naming the bound instead of returning an order.
func TestGridOrderRejectsOversizedCube(t *testing.T) {
	dims := []int{65535, 32, 1, 1}
	for _, c := range []Curve{Hilbert{}, ZOrder{}} {
		order, err := GridOrder(c, dims)
		if err == nil || !strings.Contains(err.Error(), "2^24") {
			t.Errorf("%s on %v: %d ids, err %v; want an error naming the 2^24 bound",
				c.Name(), dims, len(order), err)
		}
	}
}

// TestCheckDimsCubeBound pins where the MaxCubeCells bound falls. A cube
// of exactly 2^24 cells passes; one extent past a power of two doubles
// the cube's side. Row-major and the S-curve walk no cube, and a
// projection is bounded by its flattened plane.
func TestCheckDimsCubeBound(t *testing.T) {
	for _, tc := range []struct {
		curve string
		dims  []int
		ok    bool
	}{
		{"hilbert", []int{4096, 512}, true},
		{"hindex", []int{4096, 512}, true},
		{"moore", []int{2048, 1024}, true},
		{"zorder", []int{2048, 1024}, true},
		{"hilbert", []int{256, 128, 64}, true},
		{"zorder", []int{256, 128, 64}, true},
		{"hilbert", []int{4097, 1}, false},   // 8192^2 = 2^26
		{"hilbert", []int{257, 2, 2}, false}, // 512^3 = 2^27
		{"hindex", []int{65535, 32}, false},
		{"moore", []int{65535, 32}, false},
		{"zorder", []int{65535, 32}, false},
		{"hilbert", []int{65535, 32, 1}, false},
		{"rowmajor", []int{65535, 32}, true},
		{"scurve", []int{65535, 32}, true},
		{"scurve", []int{65535, 32, 1}, true},
		{"proj2d-hilbert", []int{64, 64, 64}, true},     // plane 64x4096
		{"proj2d-hilbert", []int{128, 128, 128}, false}, // plane 128x16384
		{"proj2d-hindex", []int{65535, 32, 1}, false},   // plane 65535x32
		{"proj2d-scurve", []int{65535, 32, 1}, true},
	} {
		c, err := ByName(tc.curve)
		if err != nil {
			t.Fatal(err)
		}
		err = CheckDims(c, tc.dims)
		if tc.ok && err != nil {
			t.Errorf("%s on %v: %v", tc.curve, tc.dims, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "2^24")) {
			t.Errorf("%s on %v: err %v, want an error naming the 2^24 bound", tc.curve, tc.dims, err)
		}
	}
	// The other refusals: a shape topo rejects, and a 2-D-only curve on
	// a 3-D grid.
	if err := CheckDims(Hilbert{}, []int{0, 4}); err == nil {
		t.Error("hilbert on [0 4]: accepted")
	}
	if err := CheckDims(HIndexing{}, []int{4, 4, 4}); err == nil {
		t.Error("hindex on [4 4 4]: accepted")
	}
}
