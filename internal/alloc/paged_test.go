package alloc

import (
	"testing"

	"meshalloc/internal/binpack"
	"meshalloc/internal/curve"
	"meshalloc/internal/topo"
)

func TestPagedSpecRoundTrip(t *testing.T) {
	m := topo.New([]int{16, 16})
	for _, spec := range []string{
		"hilbert/freelist/page1", "scurve/bestfit/page2", "hindex/firstfit/page0",
	} {
		a, err := Spec(m, spec, 1)
		if err != nil {
			t.Fatalf("Spec(%q): %v", spec, err)
		}
		if a.Name() != spec {
			t.Errorf("Spec(%q).Name() = %q", spec, a.Name())
		}
	}
	for _, bad := range []string{
		"hilbert/bestfit/page-1", "hilbert/bestfit/pageX",
		"hilbert/bestfit/page9", // 512-side page on a 16x16 mesh
		"hilbert/bestfit/page1/extra",
	} {
		if _, err := Spec(m, bad, 1); err == nil {
			t.Errorf("Spec(%q) should fail", bad)
		}
	}
}

func TestPagedAllocatesWholePages(t *testing.T) {
	m := topo.New([]int{8, 8})
	a := NewPagedPaging(m, curve.Hilbert{}, binpack.FreeList, 1) // 2x2 pages
	// A 3-processor job holds one full 2x2 page: one processor wasted.
	ids, err := a.Allocate(Request{Size: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("got %d ids", len(ids))
	}
	if a.NumFree() != 64-4 {
		t.Fatalf("NumFree = %d, want 60 (whole page taken)", a.NumFree())
	}
	// All three processors lie in the same 2x2 page.
	page := -1
	for _, id := range ids {
		p := m.Coord(id)
		pg := (p[1]/2)*4 + p[0]/2
		if page == -1 {
			page = pg
		} else if pg != page {
			t.Fatalf("ids %v straddle pages", ids)
		}
	}
	a.Release(ids)
	if a.NumFree() != 64 {
		t.Fatalf("NumFree after release = %d", a.NumFree())
	}
}

func TestPagedFragmentationWastesProcessors(t *testing.T) {
	m := topo.New([]int{8, 8})
	a := NewPagedPaging(m, curve.Hilbert{}, binpack.FreeList, 2) // 4x4 pages
	// Four 1-processor jobs each burn a 16-processor page; a fifth
	// request the size of the remaining free count still succeeds, but
	// a request exceeding it must fail with ErrInsufficient — the
	// fragmentation that made the paper choose s = 0.
	var live [][]int
	for i := 0; i < 4; i++ {
		ids, err := a.Allocate(Request{Size: 1})
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, ids)
	}
	if a.NumFree() != 0 {
		t.Fatalf("NumFree = %d, want 0: 4 single-proc jobs hold all four 4x4 pages", a.NumFree())
	}
	if _, err := a.Allocate(Request{Size: 1}); err != ErrInsufficient {
		t.Fatalf("allocation on fully-paged mesh: %v", err)
	}
	for _, ids := range live {
		a.Release(ids)
	}
	if a.NumFree() != 64 {
		t.Fatalf("NumFree after releases = %d", a.NumFree())
	}
}

func TestPagedClippedEdgePages(t *testing.T) {
	// A 5x5 mesh with 2x2 pages has clipped pages along the far edges;
	// allocation bookkeeping must still balance.
	m := topo.New([]int{5, 5})
	a := NewPagedPaging(m, curve.SCurve{}, binpack.BestFit, 1)
	ids, err := a.Allocate(Request{Size: 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 25 || a.NumFree() != 0 {
		t.Fatalf("full-mesh paged allocation: %d ids, %d free", len(ids), a.NumFree())
	}
	a.Release(ids)
	if a.NumFree() != 25 {
		t.Fatalf("NumFree = %d", a.NumFree())
	}
}

func TestPagedZeroIsPlainPaging(t *testing.T) {
	m := topo.New([]int{8, 8})
	paged := NewPagedPaging(m, curve.Hilbert{}, binpack.BestFit, 0)
	plain := NewPaging(m, curve.Hilbert{}, binpack.BestFit)
	for _, size := range []int{1, 7, 16, 5} {
		a, err1 := paged.Allocate(Request{Size: size})
		b, err2 := plain.Allocate(Request{Size: size})
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(a) != len(b) {
			t.Fatalf("size mismatch: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("page0 differs from plain paging at size %d: %v vs %v", size, a, b)
			}
		}
	}
}

func TestPagedPanicsOnBadConfig(t *testing.T) {
	m := topo.New([]int{4, 4})
	for _, s := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("page size %d should panic", s)
				}
			}()
			NewPagedPaging(m, curve.Hilbert{}, binpack.FreeList, s)
		}()
	}
}

func TestPagedDoubleReleasePanics(t *testing.T) {
	m := topo.New([]int{8, 8})
	a := NewPagedPaging(m, curve.Hilbert{}, binpack.FreeList, 1)
	ids, _ := a.Allocate(Request{Size: 4})
	a.Release(ids)
	defer func() {
		if recover() == nil {
			t.Fatal("double release should panic")
		}
	}()
	a.Release(ids)
}
