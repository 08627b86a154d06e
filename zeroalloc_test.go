// Allocation-regression guards for the simulator's steady-state hot
// paths. The grid experiments spend their time in shell scoring and
// message sends; these tests pin the zero-allocation refactor of those
// paths so a future change cannot silently reintroduce per-candidate or
// per-message garbage. See DESIGN.md ("Zero-allocation hot paths").
//
// The topology layer is dimension-generic, so every guard runs on both
// the paper's 2-D meshes and a 3-D grid (pinning the generalized shell,
// ring and Send paths the ext-cube3d experiment rides on).
package meshalloc

import (
	"fmt"
	"testing"

	"meshalloc/internal/alloc"
	"meshalloc/internal/binpack"
	"meshalloc/internal/comm"
	"meshalloc/internal/curve"
	"meshalloc/internal/netsim"
	"meshalloc/internal/occupancy"
	"meshalloc/internal/sim"
	"meshalloc/internal/topo"
	"meshalloc/internal/trace"
)

// TestShellEachZeroAlloc pins 2-D shell walking (the inner loop of MC's
// candidate scoring) at zero allocations, including the closure itself.
func TestShellEachZeroAlloc(t *testing.T) {
	m := topo.New([]int{16, 22})
	center := topo.XY(3, 20)
	sum := 0
	n := testing.AllocsPerRun(200, func() {
		for k := 0; k <= 8; k++ {
			m.ShellEach(center, topo.XY(4, 4), k, func(id int) bool {
				sum += id
				return true
			})
		}
	})
	if n != 0 {
		t.Fatalf("ShellEach iteration allocates %.1f objects/run, want 0", n)
	}
	_ = sum
}

// sendTraffic returns a job spread over all of g (rank k on node
// (k*5+3) mod size) and one message per rank, to the rank 7k+13 mod
// size: the input of the burst Send guards and benchmarks, which send
// it 32 messages at a time.
func sendTraffic(g *topo.Grid) (nodes []int, msgs []comm.Msg) {
	size := g.Size()
	nodes = make([]int, size)
	msgs = make([]comm.Msg, size)
	for k := range nodes {
		nodes[k] = (k*5 + 3) % size
		msgs[k] = comm.Msg{Src: k, Dst: (k*7 + 13) % size}
	}
	return nodes, msgs
}

// sendBurst is the burst length of the Send guards and benchmarks.
const sendBurst = 32

// sendAllocs returns the allocations per steady-state burst Send on g.
func sendAllocs(g *topo.Grid, r netsim.Routing) float64 {
	cfg := netsim.DefaultConfig()
	cfg.Routing = r
	net := netsim.New(g, cfg)
	nodes, msgs := sendTraffic(g)
	var sums netsim.Sums
	clock := 0.0
	i := 0
	return testing.AllocsPerRun(500, func() {
		off := i * sendBurst % (len(msgs) - sendBurst)
		clock = net.Send(msgs[off:off+sendBurst], nodes, clock, &sums)
		i++
	})
}

// TestNetworkSendZeroAlloc pins steady-state netsim.Send — one call per
// subphase of every simulated job — at zero allocations, for each
// routing mode, on the paper's 16x22 mesh and on the torus of the same
// shape, whose routes wrap.
func TestNetworkSendZeroAlloc(t *testing.T) {
	for _, torus := range []bool{false, true} {
		for _, r := range []netsim.Routing{netsim.RouteXY, netsim.RouteYX, netsim.RouteAdaptive} {
			name, g := r.String(), topo.New([]int{16, 22})
			if torus {
				name, g = "torus/"+name, topo.NewTorus([]int{16, 22})
			}
			t.Run(name, func(t *testing.T) {
				if n := sendAllocs(g, r); n != 0 {
					t.Fatalf("Send(%s) allocates %.1f objects/run, want 0", name, n)
				}
			})
		}
	}
}

// TestAllocatorSteadyStateAllocs pins each allocator's Allocate/Release
// cycle at exactly one allocation: the returned id slice, which the
// caller owns for the lifetime of the job and which therefore cannot be
// recycled. Everything else (shell scoring, ring gathering, bin-pack
// interval scans, free-list shuffles) must run in persistent scratch.
func TestAllocatorSteadyStateAllocs(t *testing.T) {
	m := topo.New([]int{16, 22})
	for _, spec := range append(alloc.Specs(), "random") {
		t.Run(spec, func(t *testing.T) {
			a, err := alloc.Spec(m, spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the scratch buffers past their high-water mark.
			for i := 0; i < 3; i++ {
				ids, err := a.Allocate(alloc.Request{Size: 16})
				if err != nil {
					t.Fatal(err)
				}
				a.Release(ids)
			}
			n := testing.AllocsPerRun(100, func() {
				ids, err := a.Allocate(alloc.Request{Size: 16})
				if err != nil {
					t.Fatal(err)
				}
				a.Release(ids)
			})
			if n > 1 {
				t.Fatalf("%s Allocate+Release allocates %.1f objects/run, want <= 1 (the returned slice)", spec, n)
			}
		})
	}
}

// TestIndexedAllocatorSteadyStateAllocs pins the count-don't-gather
// MC/MC1x1/Gen-Alg scorers at one allocation per cycle on a
// production-scale machine at mixed occupancy, and Gen-Alg also on a
// sparse one: the occupancy-index queries (box counts, ball counts,
// marginals), Gen-Alg's twin pre-pass and the winner-only gather must
// all run in persistent scratch.
func TestIndexedAllocatorSteadyStateAllocs(t *testing.T) {
	for _, dims := range [][]int{{32, 32}, {16, 16, 16}} {
		g := topo.New(dims)
		for _, spec := range []string{"mc", "mc1x1", "genalg"} {
			t.Run(fmt.Sprintf("%v/%s", dims, spec), func(t *testing.T) {
				a, err := alloc.Spec(g, spec, 1)
				if err != nil {
					t.Fatal(err)
				}
				// Mixed occupancy plus scratch warm-up.
				var live [][]int
				for a.NumFree() > g.Size()/3 {
					ids, err := a.Allocate(alloc.Request{Size: 1 + len(live)%29})
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, ids)
				}
				for i := 0; i < len(live); i += 4 {
					a.Release(live[i])
				}
				n := testing.AllocsPerRun(30, func() {
					ids, err := a.Allocate(alloc.Request{Size: 48})
					if err != nil {
						t.Fatal(err)
					}
					a.Release(ids)
				})
				if n > 1 {
					t.Fatalf("%s Allocate+Release allocates %.1f objects/run at mixed occupancy, want <= 1", spec, n)
				}
			})
		}
	}
	// Sparse: Gen-Alg on a ~3% busy 16x16x16, the state where its twin
	// pre-pass skips most candidates, must keep that pass in persistent
	// scratch too.
	g := topo.New([]int{16, 16, 16})
	for _, k := range []int{8, 32} {
		t.Run(fmt.Sprintf("sparse/genalg/k%d", k), func(t *testing.T) {
			a := alloc.NewGenAlg(g)
			prefillSparse(t, a, g.Size())
			n := testing.AllocsPerRun(30, func() {
				ids, err := a.Allocate(alloc.Request{Size: k})
				if err != nil {
					t.Fatal(err)
				}
				a.Release(ids)
			})
			if n > 1 {
				t.Fatalf("genalg k %d Allocate+Release allocates %.1f objects/run at ~3%% busy, want <= 1", k, n)
			}
		})
	}
}

// TestEngineDiscardPerJobAllocs pins the engine's Discard retention
// path at a small constant allocation count per job, independent of
// message quota and stream length: the pooled job-store handles, the
// recycled event-queue entries, zero-alloc Send, the counted dispersal
// metrics and the skipped record/node copies must keep per-job garbage
// down to the allocator's returned id slice plus a handful of per-job
// objects (pattern generator). Batch-retention overhead (record slice
// growth, node copies) or any per-message allocation would push this
// well past the bound.
func TestEngineDiscardPerJobAllocs(t *testing.T) {
	const jobs = 2000
	cfg := sim.Config{
		MeshW: 16, MeshH: 16,
		Alloc: "hilbert/bestfit", Pattern: "nbody",
		Seed:          1,
		MsgsPerSecond: 0.01, // ~100 messages per job: quota-linear garbage would dominate
		KeepRecords:   sim.Discard,
		KeepNodes:     sim.Discard,
	}
	n := testing.AllocsPerRun(1, func() {
		e, err := sim.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		e.Observe(func(sim.JobRecord) { count++ })
		if err := e.RunSource(trace.Limit(trace.NewPoisson(1000, 256, 1), jobs), 0); err != nil {
			t.Fatal(err)
		}
		if count != jobs {
			t.Fatalf("finished %d jobs", count)
		}
	})
	// PR 9's counted dispersal metrics (no per-finish component slices)
	// and SoA job store tightened this from the original 20.
	if perJob := n / jobs; perJob > 8 {
		t.Fatalf("Discard engine allocates %.1f objects/job, want <= 8", perJob)
	}
}

// TestBitsetScanZeroAlloc pins the word-parallel free-map primitives —
// the run-scan idiom (NextSet/NextClear) and the width-w run mask — at
// zero allocations when the caller reuses its buffers. These are the
// inner loops of every bitset-backed enumeration (see DESIGN.md,
// "Word-parallel free maps").
func TestBitsetScanZeroAlloc(t *testing.T) {
	bs := occupancy.NewBitset(1024)
	bs.SetAll()
	// Scattered mixed-size holes so the scan crosses many runs.
	for i := 0; i < 1024; i += 3 {
		bs.Clear(i)
	}
	dst := make([]uint64, len(bs.Words()))
	runs, free := 0, 0
	n := testing.AllocsPerRun(200, func() {
		for i := 0; i < 1024; {
			j := bs.NextSet(i)
			if j < 0 {
				break
			}
			k := bs.NextClear(j)
			runs++
			free += k - j
			i = k
		}
		occupancy.RunMask(dst, bs.Words(), 7)
	})
	if n != 0 {
		t.Fatalf("bitset run scan allocates %.1f objects/run, want 0", n)
	}
	_, _ = runs, free
}

// TestBinpackIntervalScanZeroAlloc pins the word-parallel free-interval
// enumeration of the bin-packing substrate at zero allocations into a
// reused buffer, at mixed occupancy where the naive scan used to walk
// rank by rank.
func TestBinpackIntervalScanZeroAlloc(t *testing.T) {
	order := curve.Hilbert{}.Order(32, 32)
	p := binpack.New(order)
	var live [][]int
	for p.NumFree() > 64 {
		ids, err := p.Allocate(1+len(live)%13, binpack.FirstFit)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, ids)
	}
	for i := 0; i < len(live); i += 3 {
		p.Release(live[i])
	}
	buf := make([]binpack.Interval, 0, 1024)
	n := testing.AllocsPerRun(200, func() {
		buf = p.AppendIntervals(buf[:0])
	})
	if n != 0 {
		t.Fatalf("AppendIntervals allocates %.1f objects/run, want 0", n)
	}
	if len(buf) == 0 {
		t.Fatal("no free intervals at mixed occupancy")
	}
}

// TestGridWalkersZeroAlloc pins the dimension-generic shell and ring
// walkers at zero allocations on 2-D and 3-D grids alike.
func TestGridWalkersZeroAlloc(t *testing.T) {
	for _, dims := range [][]int{{16, 22}, {8, 8, 8}} {
		t.Run(fmt.Sprint(dims), func(t *testing.T) {
			g := topo.New(dims)
			var c, ext topo.Point
			for i, d := range dims {
				c[i] = d / 2
				ext[i] = 2
			}
			idBuf := make([]int, 0, g.Size())
			n := testing.AllocsPerRun(200, func() {
				idBuf = g.AppendRing(idBuf[:0], c, 4)
				g.ShellEach(c, ext, 2, func(int) bool { return true })
			})
			if n != 0 {
				t.Fatalf("grid walkers allocate %.1f objects/run, want 0", n)
			}
		})
	}
}

// TestNetworkSend3DZeroAlloc pins steady-state Send on a native 3-D
// machine, mesh and torus, at zero allocations for every routing mode,
// the guarantee the ext-cube3d contention runs depend on.
func TestNetworkSend3DZeroAlloc(t *testing.T) {
	for _, torus := range []bool{false, true} {
		for _, r := range []netsim.Routing{netsim.RouteXY, netsim.RouteYX, netsim.RouteAdaptive} {
			name, g := r.String(), topo.New([]int{8, 8, 8})
			if torus {
				name, g = "torus/"+name, topo.NewTorus([]int{8, 8, 8})
			}
			t.Run(name, func(t *testing.T) {
				if n := sendAllocs(g, r); n != 0 {
					t.Fatalf("Send(%s) allocates %.1f objects/run on 3-D, want 0", name, n)
				}
			})
		}
	}
}

// TestAllocatorSteadyState3DAllocs pins the generic allocators on a 3-D
// machine at one allocation per cycle (the returned slice), mirroring
// the 2-D guard: the dimension-generic refactor must not cost the
// shell/ring scoring paths their persistent-scratch discipline.
func TestAllocatorSteadyState3DAllocs(t *testing.T) {
	g := topo.New([]int{8, 8, 8})
	for _, spec := range []string{"mc", "mc1x1", "genalg", "random", "hilbert", "hilbert/bestfit", "scurve", "proj2d-hilbert"} {
		t.Run(spec, func(t *testing.T) {
			a, err := alloc.Spec(g, spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				ids, err := a.Allocate(alloc.Request{Size: 16})
				if err != nil {
					t.Fatal(err)
				}
				a.Release(ids)
			}
			n := testing.AllocsPerRun(50, func() {
				ids, err := a.Allocate(alloc.Request{Size: 16})
				if err != nil {
					t.Fatal(err)
				}
				a.Release(ids)
			})
			if n > 1 {
				t.Fatalf("%s Allocate+Release allocates %.1f objects/run on 3-D, want <= 1", spec, n)
			}
		})
	}
}
