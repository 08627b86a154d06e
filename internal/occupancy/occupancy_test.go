package occupancy

import (
	"fmt"
	"math/rand"
	"testing"

	"meshalloc/internal/topo"
)

// busyModel is the brute-force mirror the indexes are tested against.
type busyModel struct {
	g    *topo.Grid
	busy []bool
}

func newModel(g *topo.Grid) *busyModel {
	return &busyModel{g: g, busy: make([]bool, g.Size())}
}

func (m *busyModel) freeInBox(lo, hi topo.Point) int {
	n := 0
	for id := 0; id < m.g.Size(); id++ {
		p := m.g.Coord(id)
		in := true
		for i := 0; i < topo.MaxDims; i++ {
			if p[i] < lo[i] || p[i] >= hi[i] {
				in = false
				break
			}
		}
		if in && !m.busy[id] {
			n++
		}
	}
	return n
}

func (m *busyModel) freeInBall(c topo.Point, r int) int {
	n := 0
	for id := 0; id < m.g.Size(); id++ {
		if !m.busy[id] && m.g.Dist(id, m.g.ID(c)) <= r {
			n++
		}
	}
	return n
}

func (m *busyModel) sliceFree(axis, v int, c topo.Point, rad int) int {
	n := 0
	for id := 0; id < m.g.Size(); id++ {
		p := m.g.Coord(id)
		if m.busy[id] || p[axis] != v {
			continue
		}
		d := 0
		for i := 0; i < m.g.ND(); i++ {
			if i == axis {
				continue
			}
			dd := p[i] - c[i]
			if dd < 0 {
				dd = -dd
			}
			d += dd
		}
		if d <= rad {
			n++
		}
	}
	return n
}

// toggleRandom flips a random cell's busy state across model and both
// indexes, keeping the three views in lockstep.
func toggleRandom(rng *rand.Rand, m *busyModel, boxes *Boxes, balls *Balls) {
	id := rng.Intn(m.g.Size())
	if m.busy[id] {
		m.busy[id] = false
		boxes.Release(id)
		if balls != nil {
			balls.Release(id)
		}
	} else {
		m.busy[id] = true
		boxes.Take(id)
		if balls != nil {
			balls.Take(id)
		}
	}
}

func TestBoxesMatchesBruteForce(t *testing.T) {
	for _, dims := range [][]int{{7}, {6, 9}, {16, 22}, {5, 4, 6}, {3, 4, 2, 3}} {
		g := topo.New(dims)
		m := newModel(g)
		boxes := NewBoxes(g)
		rng := rand.New(rand.NewSource(1))
		for step := 0; step < 200; step++ {
			toggleRandom(rng, m, boxes, nil)
			// Random clipped boxes, including degenerate and full-grid.
			var lo, hi topo.Point
			for i := 0; i < topo.MaxDims; i++ {
				lo[i], hi[i] = 0, 1
			}
			for i := 0; i < g.ND(); i++ {
				a, b := rng.Intn(g.Dim(i)+1), rng.Intn(g.Dim(i)+1)
				if a > b {
					a, b = b, a
				}
				lo[i], hi[i] = a, b
			}
			want := m.freeInBox(lo, hi)
			if got := boxes.FreeIn(lo, hi); got != want {
				t.Fatalf("dims %v step %d: FreeIn(%v, %v) = %d, want %d",
					dims, step, lo, hi, got, want)
			}
		}
	}
}

func TestBoxesShellCountsMatchShellWalk(t *testing.T) {
	// The box index's raison d'etre: free counts per MC shell must agree
	// with the walked shells, clipping included.
	for _, dims := range [][]int{{9, 7}, {8, 8, 8}} {
		g := topo.New(dims)
		m := newModel(g)
		boxes := NewBoxes(g)
		rng := rand.New(rand.NewSource(2))
		for step := 0; step < 60; step++ {
			toggleRandom(rng, m, boxes, nil)
			var c, ext topo.Point
			for i := 0; i < topo.MaxDims; i++ {
				ext[i] = 1
			}
			for i := 0; i < g.ND(); i++ {
				c[i] = rng.Intn(g.Dim(i))
				ext[i] = 1 + rng.Intn(4)
			}
			prev := 0
			for k := 0; k <= g.MaxShells(); k++ {
				walked := 0
				g.ShellEach(c, ext, k, func(id int) bool {
					if !m.busy[id] {
						walked++
					}
					return true
				})
				lo, hi, ok := g.GrownBounds(c, ext, k)
				if !ok {
					t.Fatalf("dims %v: GrownBounds empty for on-grid center", dims)
				}
				cur := boxes.FreeIn(lo, hi)
				if cur-prev != walked {
					t.Fatalf("dims %v c %v ext %v shell %d: counted %d, walked %d",
						dims, c, ext, k, cur-prev, walked)
				}
				prev = cur
			}
		}
	}
}

func TestBallsMatchesBruteForce(t *testing.T) {
	for _, dims := range [][]int{{6, 9}, {16, 22}, {5, 4, 6}, {8, 8, 8}} {
		g := topo.New(dims)
		m := newModel(g)
		boxes := NewBoxes(g)
		balls := NewBalls(g)
		if balls == nil {
			t.Fatalf("dims %v: NewBalls returned nil", dims)
		}
		maxR := 0
		for i := 0; i < g.ND(); i++ {
			maxR += g.Dim(i)
		}
		rng := rand.New(rand.NewSource(3))
		for step := 0; step < 120; step++ {
			toggleRandom(rng, m, boxes, balls)
			var c topo.Point
			for i := 0; i < g.ND(); i++ {
				c[i] = rng.Intn(g.Dim(i))
			}
			r := rng.Intn(maxR+2) - 1 // includes -1 and beyond-grid radii
			if got, want := balls.FreeInBall(c, r), m.freeInBall(c, r); got != want {
				t.Fatalf("dims %v step %d: FreeInBall(%v, %d) = %d, want %d",
					dims, step, c, r, got, want)
			}
			// The fused marginal, at the random radius, at r = 0, and around
			// a corner, whose balls every edge near it clips.
			var corner topo.Point
			for i := 0; i < g.ND(); i++ {
				corner[i] = rng.Intn(2) * (g.Dim(i) - 1)
			}
			checkFusedMarginal(t, m, balls, c, r)
			checkFusedMarginal(t, m, balls, c, 0)
			checkFusedMarginal(t, m, balls, corner, 1+rng.Intn(maxR))
			axis := rng.Intn(g.ND())
			rad := rng.Intn(maxR+2) - 1
			got := make([]int, g.Dim(axis))
			balls.AddMarginal(axis, c, rad, got)
			for v := range got {
				want := 0
				if rv := rad - abs(v-c[axis]); rv >= 0 {
					want = m.sliceFree(axis, v, c, rv)
				}
				if got[v] != want {
					t.Fatalf("dims %v step %d: AddMarginal(%d, %v, %d)[%d] = %d, want %d",
						dims, step, axis, c, rad, v, got[v], want)
				}
			}
		}
	}
}

// checkFusedMarginal checks the per-slice counts FreeInBall2 writes
// along the last axis: for every slice the radius-r ball reaches, the
// count AddMarginal adds for radius r-1 and the brute-force count, 0
// where the smaller ball misses the slice; slices beyond the ball stay
// untouched, and the slice counts sum to the radius-(r-1) count.
func checkFusedMarginal(t *testing.T, m *busyModel, balls *Balls, c topo.Point, r int) {
	t.Helper()
	last := m.g.ND() - 1
	n := m.g.Dim(last)
	fused, added := make([]int, n), make([]int, n)
	for v := range fused {
		fused[v] = -7
	}
	cur, prev := balls.FreeInBall2(c, r, fused)
	balls.AddMarginal(last, c, r-1, added)
	if want := m.freeInBall(c, r); cur != want {
		t.Fatalf("dims %v: FreeInBall2(%v, %d) = %d, want %d", m.g.Dims(), c, r, cur, want)
	}
	sum := 0
	for v := range fused {
		d := abs(v - c[last])
		if d > r {
			if fused[v] != -7 {
				t.Fatalf("dims %v: FreeInBall2(%v, %d) wrote slice %d beyond the ball", m.g.Dims(), c, r, v)
			}
			continue
		}
		want := 0
		if d <= r-1 {
			want = m.sliceFree(last, v, c, r-1-d)
		}
		if fused[v] != want || added[v] != want {
			t.Fatalf("dims %v: FreeInBall2(%v, %d) slice %d = %d, AddMarginal %d, want %d",
				m.g.Dims(), c, r, v, fused[v], added[v], want)
		}
		sum += fused[v]
	}
	if sum != prev {
		t.Fatalf("dims %v: FreeInBall2(%v, %d) slices sum to %d, radius-%d count %d", m.g.Dims(), c, r, sum, r-1, prev)
	}
}

// TestAuditCatchesEveryDriftedEntry drifts each entry of every table of
// both indexes in turn, on random states, and requires Audit to report
// it and to pass once the entry is restored.
func TestAuditCatchesEveryDriftedEntry(t *testing.T) {
	for _, dims := range [][]int{{7}, {6, 9}, {5, 4, 6}, {3, 4, 2, 3}} {
		g := topo.New(dims)
		m := newModel(g)
		boxes, balls := NewBoxes(g), NewBalls(g)
		rng := rand.New(rand.NewSource(4))
		for step := 0; step < g.Size()/3; step++ {
			toggleRandom(rng, m, boxes, balls)
		}
		tables := map[string][]int{"box rows": boxes.rows, "box planes": boxes.planes}
		audits := map[string]func([]bool) error{"box rows": boxes.Audit, "box planes": boxes.Audit}
		if balls != nil {
			for a := 0; a < g.ND(); a++ {
				name := fmt.Sprintf("ball family %d", a)
				tables[name], audits[name] = balls.fams[a].pref, balls.Audit
			}
		}
		for name, tab := range tables {
			audit := audits[name]
			if err := audit(m.busy); err != nil {
				t.Fatalf("dims %v: %s: audit of a consistent state: %v", dims, name, err)
			}
			for i := range tab {
				tab[i]++
				if audit(m.busy) == nil {
					t.Fatalf("dims %v: %s entry %d drifted and the audit passed", dims, name, i)
				}
				tab[i]--
			}
		}
	}
}

func TestBallsUnsupportedDimensions(t *testing.T) {
	if b := NewBalls(topo.New([]int{9})); b != nil {
		t.Error("1-D grid should not build a ball index")
	}
	if b := NewBalls(topo.New([]int{3, 3, 3, 3})); b != nil {
		t.Error("4-D grid should not build a ball index")
	}
}
