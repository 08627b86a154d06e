package topo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomSubset draws n distinct ids from [0, size).
func randomSubset(rng *rand.Rand, size, n int) []int {
	perm := rng.Perm(size)
	return perm[:n]
}

// randomWalk returns a walk of up to n nodes from a random start. Each
// step moves to a random grid neighbor (wrapping on a torus); a
// self-avoiding walk only to one not yet visited, and it stops early
// when none is left.
func randomWalk(rng *rand.Rand, g *Grid, n int, selfAvoiding bool) []int {
	u := rng.Intn(g.Size())
	walk := []int{u}
	on := map[int]bool{u: true}
	var next []int
	for len(walk) < n {
		next = next[:0]
		for d := Dir(0); int(d) < g.NumDirs(); d++ {
			if v, ok := g.Neighbor(u, d); ok && !(selfAvoiding && on[v]) {
				next = append(next, v)
			}
		}
		if len(next) == 0 {
			break
		}
		u = next[rng.Intn(len(next))]
		on[u] = true
		walk = append(walk, u)
	}
	return walk
}

// snake returns every node of g in reflected mixed-radix Gray code
// order: axis 0 runs back and forth, and each higher axis reverses
// whenever the axes below it finish a pass. Consecutive nodes differ by
// one step on one axis, so the order is a walk over the whole machine.
func snake(g *Grid) []int {
	ids := make([]int, g.Size())
	for r := range ids {
		var p Point
		for a := 0; a < g.nd; a++ {
			q := r / g.stride[a]
			p[a] = q % g.dim[a]
			if (q/g.dim[a])%2 == 1 {
				p[a] = g.dim[a] - 1 - p[a]
			}
		}
		ids[r] = g.ID(p)
	}
	return ids
}

// dedup drops every repeat of an id, keeping its first occurrence.
func dedup(ids []int) []int {
	seen := map[int]bool{}
	out := ids[:0:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// isWalk reports whether every consecutive pair of ids is at hop
// distance 1, measured by the reference Dist.
func isWalk(g *Grid, ids []int) bool {
	for i := 1; i < len(ids); i++ {
		if g.Dist(ids[i-1], ids[i]) != 1 {
			return false
		}
	}
	return true
}

// checkSetStats compares SetStats against the reference walks. It also
// requires the call to leave every histogram zero, and to have run the
// flood fill exactly when ids is not a walk (an empty list runs
// neither).
func checkSetStats(t *testing.T, g *Grid, sc *SetScratch, ids []int) {
	t.Helper()
	epoch := sc.epoch
	comps, pairDist := g.SetStats(ids, sc)
	if want := len(g.Components(ids)); comps != want {
		t.Fatalf("%v torus=%v: components %d, reference %d (ids %v)", g.Dims(), g.torus, comps, want, ids)
	}
	if want := g.TotalPairwiseDist(ids); pairDist != want {
		t.Fatalf("%v torus=%v: pairwise %d, reference %d (ids %v)", g.Dims(), g.torus, pairDist, want, ids)
	}
	for a, h := range sc.hist {
		for v, n := range h {
			if n != 0 {
				t.Fatalf("%v torus=%v: axis %d bucket %d left at %d (ids %v)", g.Dims(), g.torus, a, v, n, ids)
			}
		}
	}
	flooded := sc.epoch != epoch
	if want := len(ids) > 0 && !isWalk(g, ids); flooded != want {
		t.Fatalf("%v torus=%v: flood fill ran %v, want %v (ids %v)", g.Dims(), g.torus, flooded, want, ids)
	}
}

// TestCountedMetricsMatchReference pins SetStats against the
// materializing reference walks over random subsets of meshes and tori
// in 1..4 dimensions, including single-node, full-machine and clustered
// sets.
func TestCountedMetricsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][]int{{16}, {16, 22}, {8, 8, 8}, {4, 3, 5, 2}, {2, 2}, {1, 9}}
	for _, dims := range shapes {
		for _, torus := range []bool{false, true} {
			var g *Grid
			if torus {
				g = NewTorus(dims)
			} else {
				g = New(dims)
			}
			var sc SetScratch
			name := fmt.Sprintf("%v/torus=%v", dims, torus)
			t.Run(name, func(t *testing.T) {
				sizes := []int{0, 1, 2, 3, g.Size() / 3, g.Size()}
				for _, n := range sizes {
					if n > g.Size() {
						continue
					}
					for rep := 0; rep < 8; rep++ {
						checkSetStats(t, g, &sc, randomSubset(rng, g.Size(), n))
					}
				}
			})
		}
	}
}

// TestSetStatsWalkRule checks SetStats on walks, on lists that are
// almost walks, and on the edge cases of the walk rule. All shapes share
// one scratch, and checkSetStats requires each list to take the path its
// walk property selects, so both return paths run on every shape and a
// histogram left non-zero by one call fails the next.
func TestSetStatsWalkRule(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sc SetScratch
	shapes := [][]int{{16, 16}, {16, 22}, {8, 8, 8}, {4, 3, 5, 2}, {1, 9}, {3, 17}}
	for _, dims := range shapes {
		for _, torus := range []bool{false, true} {
			g := New(dims)
			g.torus = torus
			t.Run(fmt.Sprintf("%v/torus=%v", dims, torus), func(t *testing.T) {
				check := func(ids []int) { checkSetStats(t, g, &sc, ids) }
				check([]int{rng.Intn(g.Size())})
				check(snake(g))
				check(randomSubset(rng, g.Size(), g.Size())) // full machine, shuffled
				for rep := 0; rep < 30; rep++ {
					n := 1 + rng.Intn(g.Size())
					w := randomWalk(rng, g, n, true)
					check(w)
					// One jump: a second walk from elsewhere.
					check(dedup(append(w, randomWalk(rng, g, n, true)...)))
					// A walk with its revisits skipped is connected, but
					// the node after a skipped revisit need not be a
					// neighbor of the one before it.
					check(dedup(randomWalk(rng, g, n, false)))
				}
				for a := 0; a < g.nd; a++ {
					ext := g.dim[a]
					if ext < 2 {
						continue
					}
					// Diagonal neighbors: one step on each of two axes is
					// hop distance 2, so two components.
					for b := a + 1; b < g.nd; b++ {
						if g.dim[b] < 2 {
							continue
						}
						var p Point
						p[a], p[b] = rng.Intn(ext-1), rng.Intn(g.dim[b]-1)
						q := p
						q[a]++
						q[b]++
						check([]int{g.ID(p), g.ID(q)})
					}
					// Steps across the ends of axis a: a walk on a torus,
					// a jump on a mesh.
					p := g.Coord(rng.Intn(g.Size()))
					var ids []int
					for _, c := range []int{ext - 2, ext - 1, 0, 1} {
						p[a] = (c + ext) % ext
						ids = append(ids, g.ID(p))
					}
					check(dedup(ids))
				}
			})
		}
	}
}

// TestCountedMetricsScratchReuse runs many calls through one scratch
// across grids of different sizes, so neither the histograms nor the
// flood-fill marks are cleared between calls. Midway it sets the epoch
// to the last value before the counter wraps, with every mark equal to
// the "in the set" value of the first fill, and the calls after the wrap
// must not read those marks as members.
func TestCountedMetricsScratchReuse(t *testing.T) {
	var sc SetScratch
	rng := rand.New(rand.NewSource(3))
	grids := []*Grid{New([]int{16, 16}), New([]int{4, 4}), NewTorus([]int{8, 8, 8})}
	for rep := 0; rep < 200; rep++ {
		g := grids[rep%len(grids)]
		if rep == 100 {
			for i := range sc.mark {
				sc.mark[i] = 1
			}
			sc.epoch = math.MaxUint32 - 1
		}
		if rep%2 == 0 {
			checkSetStats(t, g, &sc, randomSubset(rng, g.Size(), 1+rng.Intn(g.Size()-1)))
		} else {
			checkSetStats(t, g, &sc, randomWalk(rng, g, 1+rng.Intn(g.Size()-1), true))
		}
	}
}

// FuzzCountedMetricsEquivalence fuzzes SetStats against the reference
// walks on a mesh and a torus of the same shape, on a random subset and
// on a self-avoiding walk drawn from the same seed.
func FuzzCountedMetricsEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(7), uint8(120))
	f.Add(uint64(99), uint8(16), uint8(16), uint8(3))
	f.Add(uint64(5), uint8(3), uint8(3), uint8(9))
	f.Add(uint64(8), uint8(1), uint8(24), uint8(30))
	f.Fuzz(func(t *testing.T, seed uint64, w, h uint8, n uint8) {
		W, H := int(w%24)+1, int(h%24)+1
		size := W * H
		k := int(n) % (size + 1)
		rng := rand.New(rand.NewSource(int64(seed)))
		var sc SetScratch
		for _, torus := range []bool{false, true} {
			g := New([]int{W, H})
			g.torus = torus
			checkSetStats(t, g, &sc, randomSubset(rng, size, k))
			checkSetStats(t, g, &sc, randomWalk(rng, g, max(k, 1), true))
		}
	})
}

// TestCountedMetricsZeroAlloc pins SetStats at zero allocations once the
// scratch is warm, on both return paths: it runs once per finished job
// on the engine's hot path.
func TestCountedMetricsZeroAlloc(t *testing.T) {
	g := New([]int{16, 16})
	var sc SetScratch
	walk := snake(g)[40:104]
	scattered := make([]int, 0, 64)
	for i := 0; i < 64; i++ {
		scattered = append(scattered, (i*37)%g.Size())
	}
	for _, ids := range [][]int{walk, scattered} {
		g.SetStats(ids, &sc) // warm the scratch, stack high-water mark included
		if n := testing.AllocsPerRun(200, func() { g.SetStats(ids, &sc) }); n != 0 {
			t.Fatalf("SetStats allocates %.1f objects/run on %d ids (walk %v), want 0", n, len(ids), isWalk(g, ids))
		}
	}
}
