package alloc

import (
	"testing"

	"meshalloc/internal/topo"
)

// Edge-case coverage for the contiguous baselines (contiguous.go) and
// the paged allocators (paged.go, plus the page-size-0 Paging): a
// completely full machine, requests larger than the machine, and
// release-then-reallocate reuse of the exact same region.

// edgeVariants builds every allocator family with a deterministic
// placement rule on a fresh 8x8 machine.
func edgeVariants(t *testing.T) []struct {
	name string
	mk   func() Allocator
} {
	t.Helper()
	mk := func(spec string) func() Allocator {
		return func() Allocator {
			a, err := Spec(topo.New([]int{8, 8}), spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
	}
	return []struct {
		name string
		mk   func() Allocator
	}{
		{"submesh", mk("submesh")},
		{"buddy", mk("buddy")},
		{"paging-firstfit", mk("hilbert/firstfit")},
		{"paging-bestfit", mk("hilbert/bestfit")},
		{"paged-page1", mk("hilbert/freelist/page1")},
	}
}

// TestAllocatorFullMachine drives each allocator to a completely full
// machine with one whole-machine job: further requests must refuse with
// ErrInsufficient (not panic), and releasing restores the exact
// whole-machine allocation.
func TestAllocatorFullMachine(t *testing.T) {
	for _, v := range edgeVariants(t) {
		t.Run(v.name, func(t *testing.T) {
			a := v.mk()
			ids, err := a.Allocate(Request{Size: 64})
			if err != nil || len(ids) != 64 {
				t.Fatalf("whole-machine allocation: %d ids, %v", len(ids), err)
			}
			if a.NumFree() != 0 {
				t.Fatalf("NumFree = %d on a full machine", a.NumFree())
			}
			if _, err := a.Allocate(Request{Size: 1}); err != ErrInsufficient {
				t.Fatalf("allocation on a full machine: %v, want ErrInsufficient", err)
			}
			a.Release(ids)
			if a.NumFree() != 64 {
				t.Fatalf("NumFree = %d after releasing the machine", a.NumFree())
			}
			again, err := a.Allocate(Request{Size: 64})
			if err != nil || !sameIDs(ids, again) {
				t.Fatalf("whole-machine reallocation diverged: %v", err)
			}
		})
	}
}

// TestAllocatorOversizeRequest pins the too-large contract: a request
// exceeding the machine refuses with ErrInsufficient, changes nothing,
// and leaves the allocator able to serve a normal request.
func TestAllocatorOversizeRequest(t *testing.T) {
	for _, v := range edgeVariants(t) {
		t.Run(v.name, func(t *testing.T) {
			a := v.mk()
			for _, size := range []int{65, 1000} {
				if _, err := a.Allocate(Request{Size: size}); err != ErrInsufficient {
					t.Fatalf("size %d on a 64-proc machine: %v, want ErrInsufficient", size, err)
				}
				if a.NumFree() != 64 {
					t.Fatalf("failed oversize request consumed processors: NumFree = %d", a.NumFree())
				}
			}
			if _, err := a.Allocate(Request{Size: 9}); err != nil {
				t.Fatalf("allocation after oversize refusals: %v", err)
			}
		})
	}
}

// TestReleaseReallocateSameRegion allocates two jobs, releases the
// first, and re-requests its size: every deterministic first-position
// rule here (first-fit anchors, sorted free lists, best-fit holes,
// lowest-origin buddy blocks) must hand back exactly the region just
// vacated.
func TestReleaseReallocateSameRegion(t *testing.T) {
	for _, v := range edgeVariants(t) {
		t.Run(v.name, func(t *testing.T) {
			a := v.mk()
			size := 12
			if v.name == "buddy" {
				size = 16 // whole blocks, so the vacated region is exact
			}
			first, err := a.Allocate(Request{Size: size})
			if err != nil {
				t.Fatal(err)
			}
			second, err := a.Allocate(Request{Size: size})
			if err != nil {
				t.Fatal(err)
			}
			a.Release(first)
			got, err := a.Allocate(Request{Size: size})
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(got, first) {
				t.Fatalf("reallocation after release: got %v, want the vacated %v", got, first)
			}
			_ = second
		})
	}
}

// TestPagedClippedPagesFullMachine exercises the clipped-edge-page path
// of PagedPaging: on a 5x5 mesh with side-2 pages the edge pages hold
// fewer processors, and a whole-machine job must still account exactly.
func TestPagedClippedPagesFullMachine(t *testing.T) {
	a, err := Spec(topo.New([]int{5, 5}), "rowmajor/freelist/page1", 1)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := a.Allocate(Request{Size: 25})
	if err != nil || len(ids) != 25 {
		t.Fatalf("whole clipped machine: %d ids, %v", len(ids), err)
	}
	if a.NumFree() != 0 {
		t.Fatalf("NumFree = %d", a.NumFree())
	}
	if _, err := a.Allocate(Request{Size: 1}); err != ErrInsufficient {
		t.Fatalf("full clipped machine: %v", err)
	}
	a.Release(ids)
	if a.NumFree() != 25 {
		t.Fatalf("NumFree after release = %d", a.NumFree())
	}
	// A partial job wastes the remainder of its last page; releasing it
	// returns whole pages.
	ids, err = a.Allocate(Request{Size: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumFree() != 25-4 {
		t.Fatalf("NumFree = %d after a 3-proc job on side-2 pages, want 21", a.NumFree())
	}
	a.Release(ids)
	if a.NumFree() != 25 {
		t.Fatalf("NumFree = %d after release, want 25", a.NumFree())
	}
}

// findFreeRef is the cell-by-cell reference anchor scan the word-parallel
// findFree must reproduce: the first fully-free w x h submesh in
// row-major anchor order, read straight off the busy bitmap.
func findFreeRef(a *SubmeshFirstFit, w, h, size int) []int {
	if w > a.g.Dim(0) || h > a.g.Dim(1) {
		return nil
	}
	for y := 0; y+h <= a.g.Dim(1); y++ {
	anchors:
		for x := 0; x+w <= a.g.Dim(0); x++ {
			ids := a.g.Nodes(rect(x, y, w, h))
			for _, id := range ids {
				if a.busy[id] {
					continue anchors
				}
			}
			return ids[:size]
		}
	}
	return nil
}

// TestSubmeshWordScanMatchesNaive churns the allocator on meshes around
// and past the 64-bit word boundary and, before every request, checks
// the word-parallel free-box search against the cell-by-cell reference
// for each candidate shape: identical anchors, including "none".
func TestSubmeshWordScanMatchesNaive(t *testing.T) {
	for _, dims := range [][2]int{{5, 9}, {8, 8}, {16, 22}, {33, 7}, {70, 3}} {
		a := NewSubmeshFirstFit(topo.New([]int{dims[0], dims[1]}))
		x := xorshift(uint64(dims[0]*100+dims[1]) | 1)
		var live [][]int
		for step := 0; step < 80; step++ {
			if a.NumFree() > 0 && (len(live) == 0 || x.intn(3) != 0) {
				req := Request{Size: 1 + x.intn(min(a.NumFree(), 14))}
				for _, s := range a.candidateShapes(req) {
					got := a.findFree(s[0], s[1], req.Size)
					if want := findFreeRef(a, s[0], s[1], req.Size); !sameIDs(got, want) {
						t.Fatalf("%v step %d shape %v: word anchors %v, reference %v", dims, step, s, got, want)
					}
				}
				if ids, err := a.Allocate(req); err == nil {
					live = append(live, ids)
				}
			} else if len(live) > 0 {
				i := x.intn(len(live))
				a.Release(live[i])
				live = append(live[:i], live[i+1:]...)
			}
		}
	}
}
