package curve

import (
	"fmt"
	"sync"
)

// HIndexing is the H-indexing of Niedermeier, Reinhardt and Sanders
// ("Towards optimal locality in mesh-indexings", FCT 1997): a Hamiltonian
// cycle of the 2^k x 2^k grid built from two congruent triangle indexings
// that interlock along the main diagonal. Like Hilbert, it is truncated
// from the enclosing power-of-two square for other mesh shapes.
//
// Construction used here: let T(n) be a Hamiltonian path over the
// lower-right "half" of the n x n grid — the cells strictly below the main
// diagonal plus the even-indexed diagonal cells — running from cell (0,0)
// to cell (n-1, n-2). T satisfies the recursion
//
//	T(n) = T(n/2)                     in the lower-left quadrant
//	     ⊕ S(n/2) shifted by (n/2,0)  over the full lower-right quadrant
//	     ⊕ T(n/2) shifted by (n/2,n/2)
//
// where S(q) is the Hamiltonian path over the full q x q square from local
// cell (0, q-2) to (0, q-1), obtained by cutting the Hamiltonian cycle
// C(q) = T(q) followed by the point-reflection of T(q) at the edge
// {(0,q-2), (0,q-1)}. The full H-indexing of the square is the closed
// cycle C(n). Consecutive cells are always grid-adjacent, and the last
// cell is adjacent to the first — the defining property that distinguishes
// H-indexing (a cycle) from the Hilbert curve (an open path).
type HIndexing struct{}

// Name implements Curve.
func (HIndexing) Name() string { return "hindex" }

// Order implements Curve: the cycle C(n), T(n) followed by its point
// reflection, truncated to the w x h mesh.
func (HIndexing) Order(w, h int) []int {
	n := nextPow2(max(w, h))
	t := hTriangle(n)
	ids := make([]int, 0, w*h)
	for _, c := range t {
		ids = appendIn(ids, c.x, c.y, w, h)
	}
	for _, c := range t {
		ids = appendIn(ids, n-1-c.x, n-1-c.y, w, h)
	}
	return ids
}

// cell is a grid cell of the H-indexing construction.
type cell struct{ x, y int }

var (
	hMu    sync.Mutex
	hPaths = map[int][]cell{} // memoized canonical T(n)
)

// hTriangle returns the canonical triangle path T(n) (memoized).
func hTriangle(n int) []cell {
	hMu.Lock()
	defer hMu.Unlock()
	return hTriangleLocked(n)
}

func hTriangleLocked(n int) []cell {
	if t, ok := hPaths[n]; ok {
		return t
	}
	var t []cell
	if n == 2 {
		t = []cell{{0, 0}, {1, 0}}
	} else {
		q := n / 2
		sub := hTriangleLocked(q)
		sq := hSquarePathLocked(q)
		t = make([]cell, 0, n*n/2)
		t = append(t, sub...)
		for _, c := range sq {
			t = append(t, cell{c.x + q, c.y})
		}
		for _, c := range sub {
			t = append(t, cell{c.x + q, c.y + q})
		}
	}
	hPaths[n] = t
	return t
}

// hSquarePathLocked returns the Hamiltonian path over the q x q square
// from (0, q-2) to (0, q-1): the cycle C(q) cut at that edge.
func hSquarePathLocked(q int) []cell {
	sub := hTriangleLocked(q)
	cyc := make([]cell, 0, q*q)
	cyc = append(cyc, sub...)
	for _, c := range sub {
		cyc = append(cyc, cell{q - 1 - c.x, q - 1 - c.y})
	}
	from := cell{0, q - 2}
	to := cell{0, q - 1}
	fi, ti := indexOf(cyc, from), indexOf(cyc, to)
	if fi < 0 || ti < 0 {
		panic(fmt.Sprintf("curve: H-indexing cycle of size %d missing cut cells", q))
	}
	m := len(cyc)
	path := make([]cell, 0, m)
	switch {
	case (fi+1)%m == ti:
		// to follows from: walk backwards from `from` around to `to`.
		for k := 0; k < m; k++ {
			path = append(path, cyc[((fi-k)%m+m)%m])
		}
	case (ti+1)%m == fi:
		// from follows to: walk forwards from `from` around to `to`.
		for k := 0; k < m; k++ {
			path = append(path, cyc[(fi+k)%m])
		}
	default:
		panic(fmt.Sprintf("curve: H-indexing cut cells not adjacent in cycle of size %d", q))
	}
	return path
}

func indexOf(cells []cell, c cell) int {
	for i, d := range cells {
		if d == c {
			return i
		}
	}
	return -1
}
