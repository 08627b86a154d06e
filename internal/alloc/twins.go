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
// Let R be the smallest radius whose ball around the grid corner
// (0,…,0) holds k nodes. The corner's clipped ball is the smallest
// clipped ball of its radius on the grid (per axis the corner's offsets
// 0, 1, 2, … are pointwise no shorter than any other center's 0, 1, 1,
// 2, 2, …), so a center with no unavailable node within L1 distance R —
// a clear center — stops its ring gather at radius R or below and
// collects only free nodes. What it gathers then depends on the center
// only through the offsets the grid admits within radius R, which per
// axis a are fixed by its clip class (min(c_a, R), min(D_a−1−c_a, R));
// ring order is row-major, and row-major order on c+δ is the same order
// on δ for every c. Clear centers of one class therefore gather
// translates of one set and tie, and the first one in ascending id
// order — which the scan's first-strictly-better rule prefers among
// ties anyway — is the only one worth scoring.

// twinScratch is the persistent workspace of the twin pre-pass.
type twinScratch struct {
	// cornerBall[r] counts the grid nodes within L1 distance r of the
	// corner (0,…,0).
	cornerBall []int
	// dist is each node's L1 distance to the nearest unavailable node,
	// saturated at R+1.
	dist []int32
	// seen marks the classes whose first clear center has been met,
	// indexed by the id of the class representative: the center with
	// every coordinate in [R, D_a−1−R] collapsed to R.
	seen []bool
	// skip is the pass's answer: busy and masked centers, plus every
	// clear center whose class has a lower-id clear member.
	skip []bool
}

func newTwinScratch(g *topo.Grid) twinScratch {
	n := g.Size()
	maxSum := 0
	for ax := 0; ax < g.ND(); ax++ {
		maxSum += g.Dim(ax) - 1
	}
	ball := make([]int, maxSum+1)
	for id := 0; id < n; id++ {
		p, s := g.Coord(id), 0
		for ax := 0; ax < g.ND(); ax++ {
			s += p[ax]
		}
		ball[s]++
	}
	for r := 1; r < len(ball); r++ {
		ball[r] += ball[r-1]
	}
	return twinScratch{
		cornerBall: ball,
		dist:       make([]int32, n),
		seen:       make([]bool, n),
		skip:       make([]bool, n),
	}
}

// twinSkips returns the centers the indexed scan passes over for a
// request of k processors: the busy and masked ones, plus the twins.
// When no axis is long enough for a class to hold two centers
// (D_a < 2R+2 everywhere) there are no twins and the pass is skipped;
// the busy bitmap itself is returned. The pass is O(n·nd): an L1
// distance field over the busy bitmap, two sweeps per axis, then one
// ascending walk that keeps the first clear center of each class.
func (a *GenAlg) twinSkips(k int) []bool {
	t := &a.twin
	R := sort.SearchInts(t.cornerBall, k)
	// The ball index, and so the indexed scan, exists on 2-D and 3-D
	// grids only; a 2-D grid is walked as one plane of extent 1 on axis 2.
	dim := [3]int{1, 1, 1}
	wide := false
	for ax := 0; ax < a.g.ND(); ax++ {
		dim[ax] = a.g.Dim(ax)
		wide = wide || dim[ax] >= 2*R+2
	}
	if !wide {
		return a.busy
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
	c := 0
	for z := 0; z < dim[2]; z++ {
		rz := collapse(z, dim[2], R) * stride[2]
		for y := 0; y < dim[1]; y++ {
			ryz := rz + collapse(y, dim[1], R)*stride[1]
			for x := 0; x < w; x++ {
				if d := t.dist[c]; d < far {
					t.skip[c] = d == 0
				} else {
					rep := ryz + collapse(x, w, R)
					t.skip[c] = t.seen[rep]
					t.seen[rep] = true
				}
				c++
			}
		}
	}
	return t.skip
}

// collapse maps coordinate v on an axis of extent d to the coordinate
// of its class representative: the coordinates in [R, d−1−R] share one
// clip class and collapse to R.
func collapse(v, d, R int) int {
	if v > R && v <= d-1-R {
		return R
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
