package alloc

import (
	"sort"

	"meshalloc/internal/topo"
)

// Twin candidates. On a lightly loaded machine most free centers sit in
// wholly free neighbourhoods, and two such centers that the machine
// edges clip alike gather translated copies of one node set: their
// scores tie, so the later one can never be strictly better. The
// pre-pass below finds them so the indexed scan scores each such set
// once.
//
// Let N(c, r) be the number of grid nodes within L1 distance r of c,
// and ρ(c) the smallest r with N(c, r) ≥ k. N(c, r) depends on c only
// through its per-axis offsets clipped at r, (min(c_a, r),
// min(D_a−1−c_a, r)), so ρ(c) lies between the interior radius ρ_int,
// an unclipped ball's, and the corner radius R, the corner (0,…,0)'s:
// per axis the corner's offsets 0, 1, 2, … are pointwise no shorter
// than any other center's 0, 1, 1, 2, 2, …, so its clipped ball is the
// smallest of each radius. A center is clear when no unavailable node
// lies within ρ(c) of it. Its ring gather then takes rings 0..ρ−1 whole
// and the first k−N(c, ρ−1) nodes of ring ρ, all free, so what it
// gathers is fixed by ρ and the offsets clipped at ρ; ring order is
// row-major, and row-major order on c+δ is the same order on δ for
// every c. Clear centers with equal ρ and equal offsets clipped at ρ —
// one class — therefore gather translates of one set and tie, and the
// first one in ascending id order, which the scan's first-strictly-
// better rule prefers among ties anyway, is the only one worth scoring.
//
// A class is named by its representative: the center with every
// coordinate in [ρ, D_a−1−ρ] collapsed to ρ. The representative is a
// member of the class it names (its offsets clipped at ρ are the
// class's, so its own radius is ρ too), so two classes with one
// representative share a member and are one class.

// twinScratch is the persistent workspace of the twin pre-pass,
// allocated once with the allocator.
type twinScratch struct {
	// oneSided[j][s] counts the lattice points with j coordinates
	// one-sided (≥ 0), the other nd−j two-sided, and L1 norm at most s.
	// Clipped ball sizes are signed sums of these (see ballSize).
	oneSided [][]int
	// dist is each node's L1 distance to the nearest unavailable node,
	// saturated at R+1.
	dist []int32
	// class memoises ρ and the representative's id for each class at the
	// corner radius R, whose ρ-classes are unions of them, at the id of
	// its member with every coordinate in [R, D_a−1−R] collapsed to R. An
	// entry is a pure function of the grid and the request size k it was
	// computed for, so it stays valid across calls until a request of
	// another size reuses its slot.
	class []twinClass
	// seen marks the classes whose first clear center has been met,
	// indexed by the id of the class representative.
	seen []bool
	// skip is the pass's answer: busy and masked centers, plus every
	// clear center whose class has a lower-id clear member.
	skip []bool
}

// twinClass is one memoised class: its radius rho and the id rep of
// its representative, for request size k. Grids have at most
// topo.MaxNodes nodes, so int32 holds any id, size or radius.
type twinClass struct{ k, rho, rep int32 }

func newTwinScratch(g *topo.Grid) twinScratch {
	nd, n := g.ND(), g.Size()
	maxR := 0
	for ax := 0; ax < nd; ax++ {
		maxR += g.Dim(ax) - 1
	}
	t := twinScratch{
		oneSided: make([][]int, nd+1),
		dist:     make([]int32, n),
		class:    make([]twinClass, n),
		seen:     make([]bool, n),
		skip:     make([]bool, n),
	}
	for j := range t.oneSided {
		t.oneSided[j] = make([]int, maxR+1)
	}
	// Row j's generating function is (1+x)^(nd−j) / (1−x)^(nd+1): a
	// one-sided coordinate contributes 1/(1−x), a two-sided one
	// (1+x)/(1−x), and counting the ball rather than its surface one more
	// 1/(1−x). Row nd is ones summed nd times; each row below multiplies
	// by (1+x).
	row := t.oneSided[nd]
	for s := range row {
		row[s] = 1
	}
	for range nd {
		for s := 1; s < len(row); s++ {
			row[s] += row[s-1]
		}
	}
	for j := nd; j > 0; j-- {
		above, below := t.oneSided[j], t.oneSided[j-1]
		below[0] = above[0]
		for s := 1; s < len(below); s++ {
			below[s] = above[s] + above[s-1]
		}
	}
	return t
}

// ballSize returns N(c, r) for a center with lo[a] = c_a and hi[a] =
// D_a−1−c_a nodes of room toward axis a's low and high faces, by
// inclusion–exclusion over the faces the unclipped ball crosses: the
// points beyond a face at distance d form a ball of radius r−d−1 with
// that axis one-sided, the points beyond several faces (at most one per
// axis) a ball with each of those axes one-sided, and each face crossed
// flips the term's sign. It reads at most 3^nd table entries.
func (t *twinScratch) ballSize(lo, hi *[3]int, nd, r int) int {
	// cut[a] lists what each choice on axis a takes off the radius: 0
	// for no face, d+1 for each face the ball crosses.
	var cut [3][3]int
	opts := [3]int{1, 1, 1}
	for a := 0; a < nd; a++ {
		if lo[a] < r {
			cut[a][opts[a]] = lo[a] + 1
			opts[a]++
		}
		if hi[a] < r {
			cut[a][opts[a]] = hi[a] + 1
			opts[a]++
		}
	}
	n := 0
	for i := 0; i < opts[0]; i++ {
		for j := 0; j < opts[1]; j++ {
			for l := 0; l < opts[2]; l++ {
				s := r - cut[0][i] - cut[1][j] - cut[2][l]
				if s < 0 {
					continue
				}
				faces := min(i, 1) + min(j, 1) + min(l, 1)
				if faces&1 == 0 {
					n += t.oneSided[faces][s]
				} else {
					n -= t.oneSided[faces][s]
				}
			}
		}
	}
	return n
}

// twinSkips returns the centers the indexed scan passes over for a
// request of k processors: the busy and masked ones, plus the twins.
// When no axis is long enough for a class to hold two centers
// (D_a < 2ρ_int+2 everywhere, and ρ ≥ ρ_int) there are no twins and the
// pass is skipped; the busy bitmap itself is returned. The pass is
// O(n·nd): an L1 distance field over the busy bitmap, two sweeps per
// axis, then one ascending walk that keeps the first clear center of
// each class. A center's ρ is read from the class memo, which computes
// it from ballSize the first time a size-k request meets its class.
func (a *GenAlg) twinSkips(k int) []bool {
	t := &a.twin
	nd := a.g.ND()
	rin := sort.SearchInts(t.oneSided[0], k)
	// The ball index, and so the indexed scan, exists on 2-D and 3-D
	// grids only; a 2-D grid is walked as one plane of extent 1 on axis 2.
	dim := [3]int{1, 1, 1}
	var room [3]int
	wide := false
	for ax := 0; ax < nd; ax++ {
		dim[ax] = a.g.Dim(ax)
		room[ax] = dim[ax] - 1
		wide = wide || dim[ax] >= 2*rin+2
	}
	if !wide {
		return a.busy
	}
	// The corner has no room toward its low faces. N(corner, maxR) is the
	// whole machine, which holds numFree ≥ k, so the search ends.
	R := rin
	for t.ballSize(&[3]int{}, &room, nd, R) < k {
		R++
	}
	stride := [3]int{1, dim[0], dim[0] * dim[1]}
	n, w, far := len(t.dist), dim[0], int32(R+1)
	// Axis 0 runs along rows, so its sweeps carry the running distance
	// in a register; the forward one also seeds the field from busy.
	for row := 0; row < n; row += w {
		f, busy := t.dist[row:row+w], a.busy[row:row+w]
		run := far
		for i, b := range busy {
			run = min(far, run+1)
			if b {
				run = 0
			}
			f[i] = run
		}
		run = far
		for i := w - 1; i >= 0; i-- {
			run = min(f[i], run+1)
			f[i] = run
		}
	}
	// Axes 1 and 2 relax each row or plane from its neighbour.
	for ax := 1; ax < 3; ax++ {
		st, block := stride[ax], stride[ax]*dim[ax]
		for base := 0; base < n; base += block {
			for j := base + st; j < base+block; j += st {
				relax(t.dist[j:j+st], t.dist[j-st:j])
			}
			for j := base + block - 2*st; j >= base; j -= st {
				relax(t.dist[j:j+st], t.dist[j+st:j+2*st])
			}
		}
	}
	clear(t.seen)
	// A center within ρ_int of an unavailable node is never clear, and
	// only the others need their class.
	k32, rin32 := int32(k), int32(rin)
	c := 0
	for z := 0; z < dim[2]; z++ {
		rz := collapse(z, dim[2], R) * stride[2]
		for y := 0; y < dim[1]; y++ {
			ryz := rz + collapse(y, dim[1], R)*stride[1]
			for x := 0; x < w; x++ {
				d := t.dist[c]
				skip := d == 0
				if d > rin32 {
					cl := &t.class[ryz+collapse(x, w, R)]
					if cl.k != k32 {
						t.fillClass(cl, k, rin, nd, [3]int{x, y, z}, dim, stride)
					}
					if d > cl.rho {
						skip = t.seen[cl.rep]
						t.seen[cl.rep] = true
					}
				}
				t.skip[c] = skip
				c++
			}
		}
	}
	return t.skip
}

// fillClass sets cl to the class of center p for request size k: ρ,
// searched upward from the interior radius rin, and the id of the
// representative.
func (t *twinScratch) fillClass(cl *twinClass, k, rin, nd int, p, dim, stride [3]int) {
	var lo, hi [3]int
	for ax := 0; ax < nd; ax++ {
		lo[ax], hi[ax] = p[ax], dim[ax]-1-p[ax]
	}
	rho := rin
	for t.ballSize(&lo, &hi, nd, rho) < k {
		rho++
	}
	rep := 0
	for ax := 0; ax < nd; ax++ {
		rep += collapse(p[ax], dim[ax], rho) * stride[ax]
	}
	*cl = twinClass{k: int32(k), rho: int32(rho), rep: int32(rep)}
}

// collapse maps coordinate v on an axis of extent d to the coordinate
// of its class representative at radius r: the coordinates in
// [r, d−1−r] share one clip class and collapse to r.
func collapse(v, d, r int) int {
	if v > r && v <= d-1-r {
		return r
	}
	return v
}

// relax lowers each dst[i] to src[i]+1 where that is smaller: one step
// of a distance sweep between neighbouring rows or planes.
func relax(dst, src []int32) {
	src = src[:len(dst)]
	for i, s := range src {
		dst[i] = min(dst[i], s+1)
	}
}
