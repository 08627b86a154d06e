package alloc

import (
	"fmt"
	"testing"

	"meshalloc/internal/topo"
)

// Twin-skip tests: on lightly loaded machines, where most free centers
// are twins, the indexed Gen-Alg must still return exactly the naive
// reference's ids, and the pre-pass must actually collapse the
// candidate set.

// twinGrids mixes long axes (many centers per clip class) with short
// ones (5x9x16 and 3x17 have axes with no middle class at most sizes).
var twinGrids = [][]int{{16, 16, 16}, {16, 22}, {32, 32}, {5, 9, 16}, {3, 17}}

// sparseState marks about busyPct% of g's nodes busy and masks about
// 1% more with MarkDown, identically on every allocator given.
func sparseState(g *topo.Grid, seed uint64, busyPct int, as ...interface {
	take(ids []int)
	MarkDown(id int)
}) {
	x := xorshift(seed | 1)
	for id := 0; id < g.Size(); id++ {
		switch r := x.intn(1000); {
		case r < 10*busyPct:
			for _, a := range as {
				a.take([]int{id})
			}
		case r < 10*busyPct+10:
			for _, a := range as {
				a.MarkDown(id)
			}
		}
	}
}

// TestTwinSkipMatchesNaiveSparse compares indexed Gen-Alg against the
// naive reference on sparse machines (see matchSparse).
func TestTwinSkipMatchesNaiveSparse(t *testing.T) {
	for gi, dims := range twinGrids {
		g := topo.New(dims)
		for si, busyPct := range []int{0, 3, 10} {
			t.Run(fmt.Sprintf("%v/busy%d", dims, busyPct), func(t *testing.T) {
				naive, indexed := NewGenAlgNaive(g), NewGenAlg(g)
				sparseState(g, uint64(gi*31+busyPct), busyPct, naive, indexed)
				matchSparse(t, naive, indexed, si)
			})
		}
	}
}

// TestMCFloorMatchesNaiveSparse compares MC and MC1x1 against the walked
// reference on the same sparse machines. Most of these requests find a
// center at the cost floor, where the scan stops early.
func TestMCFloorMatchesNaiveSparse(t *testing.T) {
	for gi, dims := range twinGrids {
		g := topo.New(dims)
		for _, oneByOne := range []bool{false, true} {
			for si, busyPct := range []int{0, 3, 10} {
				naive, indexed := newMCNaive(g, oneByOne), NewMC(g)
				indexed.oneByOne = oneByOne
				t.Run(fmt.Sprintf("%v/%s/busy%d", dims, indexed.Name(), busyPct), func(t *testing.T) {
					sparseState(g, uint64(gi*31+busyPct), busyPct, naive, indexed)
					matchSparse(t, naive, indexed, si)
				})
			}
		}
	}
}

// matchSparse requests the same sizes from naive and indexed and
// requires identical ids. Sparse state si of 0, 1, 2 (0, 3 and 10%
// busy) takes every third size from 1+si to 80, so the three states
// share the sizes 1..80 between them (the naive references cost O(n·k)
// per request), and one large request, a 16th, 8th or 4th of the free
// nodes. Every allocation is released before the next, so the state is
// fixed.
func matchSparse(t *testing.T, naive, indexed Allocator, si int) {
	t.Helper()
	free := naive.NumFree()
	sizes := []int{free / (16 >> si)}
	for k := 1 + si; k <= 80; k += 3 {
		sizes = append(sizes, k)
	}
	for _, k := range sizes {
		if k < 1 || k > free {
			continue
		}
		want, err := naive.Allocate(Request{Size: k})
		if err != nil {
			t.Fatalf("k %d: naive: %v", k, err)
		}
		got, err := indexed.Allocate(Request{Size: k})
		if err != nil {
			t.Fatalf("k %d: %v", k, err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("k %d: ids %v, naive %v", k, got, want)
		}
		indexed.Release(got)
		naive.Release(want)
	}
}

// TestTwinSkipScoresOnePerClass counts the candidates the pre-pass
// leaves to score. On an empty 16x16x16 machine at k = 8 the corner
// ball gives R = 2, so each axis has five clip classes — coordinates 0,
// 1, 2..13, 14 and 15 — and at most 5^3 = 125 of the 4,096 centers
// remain.
func TestTwinSkipScoresOnePerClass(t *testing.T) {
	a := NewGenAlg(topo.New([]int{16, 16, 16}))
	skip := a.twinSkips(8)
	scored := 0
	for _, s := range skip {
		if !s {
			scored++
		}
	}
	if scored > 125 {
		t.Fatalf("empty 16x16x16, k 8: %d candidates scored, want <= 125", scored)
	}
	// Busy and masked centers are always passed over.
	sparseState(a.g, 5, 3, a)
	skip = a.twinSkips(8)
	for id, b := range a.busy {
		if b && !skip[id] {
			t.Fatalf("busy center %d not skipped", id)
		}
	}
}

// TestTwinSkipGathersTranslates checks the property the skip rests on:
// every twin gathers, in the same order, a translate of the set that
// some lower-id scored center gathers, so its score can only tie.
func TestTwinSkipGathersTranslates(t *testing.T) {
	for gi, dims := range twinGrids {
		g := topo.New(dims)
		a, ref := NewGenAlg(g), NewGenAlgNaive(g)
		sparseState(g, uint64(gi), 3, a, ref)
		for _, k := range []int{1, 2, 5, 6, 8, 13, 16, 32} {
			skip := a.twinSkips(k)
			scored := map[string]bool{}
			for c, s := range skip {
				if a.busy[c] {
					continue
				}
				ref.nearest(c, k)
				key := gatherOffsets(g, c, ref.nearBuf)
				if !s {
					scored[key] = true
				} else if !scored[key] {
					t.Fatalf("%v k %d: twin %d gathers no translate of a lower-id scored set", dims, k, c)
				}
			}
		}
	}
}

// gatherOffsets renders ids as their coordinate offsets from center, in
// order.
func gatherOffsets(g *topo.Grid, center int, ids []int) string {
	c := g.Coord(center)
	var b []byte
	for _, id := range ids {
		p := g.Coord(id)
		for ax := 0; ax < g.ND(); ax++ {
			b = fmt.Appendf(b, "%d,", p[ax]-c[ax])
		}
		b = append(b, ';')
	}
	return string(b)
}
