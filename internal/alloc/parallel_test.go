package alloc

import (
	"runtime"
	"testing"
	"time"

	"meshalloc/internal/topo"
)

// Parallel-scoring determinism tests: a parallel Gen-Alg driven through
// the same allocate/release workload as a sequential twin must return
// identical id slices at every step — the lowest-id-wins argmin
// contract — at every worker count, on 2-D and 3-D machines.

// runParallelEquivalence drives a sequential/parallel allocator pair
// through a random workload and requires identical outcomes step by
// step. Releases happen in random order so busy patterns fragment the
// way long simulations fragment them.
func runParallelEquivalence(t *testing.T, g *topo.Grid, workers int, seed uint64) {
	t.Helper()
	seq := NewGenAlg(g)
	par := NewGenAlg(g)
	par.SetParallelism(workers)

	x := xorshift(seed | 1)
	var seqLive, parLive [][]int
	for step := 0; step < 40; step++ {
		if seq.NumFree() != par.NumFree() {
			t.Fatalf("dims %v workers %d step %d: NumFree %d vs %d",
				g.Dims(), workers, step, seq.NumFree(), par.NumFree())
		}
		if free := seq.NumFree(); free > 0 && (len(seqLive) == 0 || x.intn(3) > 0) {
			size := 1 + x.intn(min(free, 24))
			req := Request{Size: size}
			if x.intn(4) == 0 {
				req.ShapeW, req.ShapeH = 1+x.intn(5), 1+x.intn(5)
			}
			got, err1 := seq.Allocate(req)
			want, err2 := par.Allocate(req)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("dims %v workers %d size %d: error mismatch %v vs %v",
					g.Dims(), workers, size, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if !sameIDs(got, want) {
				t.Fatalf("dims %v workers %d size %d seed %#x: sequential ids %v != parallel ids %v",
					g.Dims(), workers, size, seed, got, want)
			}
			seqLive = append(seqLive, got)
			parLive = append(parLive, want)
		} else if len(seqLive) > 0 {
			i := x.intn(len(seqLive))
			seq.Release(seqLive[i])
			par.Release(parLive[i])
			seqLive = append(seqLive[:i], seqLive[i+1:]...)
			parLive = append(parLive[:i], parLive[i+1:]...)
		}
	}
}

func TestParallelScanMatchesSequential(t *testing.T) {
	grids := []*topo.Grid{
		topo.New([]int{16, 16}),
		topo.New([]int{16, 22}),
		topo.New([]int{8, 8, 8}),
	}
	for gi, g := range grids {
		for _, workers := range []int{2, 3, 8} {
			runParallelEquivalence(t, g, workers, uint64(gi)*1021+uint64(workers))
		}
	}
}

// TestSetParallelismOneIsSequential checks that SetParallelism(1) and
// SetParallelism(0) restore the sequential loop (no goroutines spawned
// during Allocate).
func TestSetParallelismOneIsSequential(t *testing.T) {
	g := topo.New([]int{8, 8})
	for _, workers := range []int{0, 1, -3} {
		a := NewGenAlg(g)
		a.SetParallelism(workers)
		if a.workers != 1 {
			t.Fatalf("SetParallelism(%d): workers = %d, want 1", workers, a.workers)
		}
		before := runtime.NumGoroutine()
		if _, err := a.Allocate(Request{Size: 4}); err != nil {
			t.Fatal(err)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("sequential Allocate grew goroutines: %d -> %d", before, after)
		}
	}
}

// TestParallelScanLeavesNoGoroutines checks the chunked scan joins all
// workers before Allocate returns.
func TestParallelScanLeavesNoGoroutines(t *testing.T) {
	g := topo.New([]int{16, 16})
	base := runtime.NumGoroutine()
	a := NewGenAlg(g)
	a.SetParallelism(8)
	for i := 0; i < 10; i++ {
		if _, err := a.Allocate(Request{Size: 9}); err != nil {
			t.Fatal(err)
		}
	}
	// Workers are joined by wg.Wait before Allocate returns; any excess
	// here would be a leak. Allow a moment for exiting goroutines to be
	// reaped before declaring one.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", base, runtime.NumGoroutine())
}
