package alloc

import (
	"testing"
	"testing/quick"

	"meshalloc/internal/topo"
)

func TestSubmeshAllocatesContiguous(t *testing.T) {
	m := topo.New([]int{8, 8})
	a := NewSubmeshFirstFit(m)
	for _, size := range []int{1, 4, 6, 9, 12} {
		ids, err := a.Allocate(Request{Size: size})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(m.Components(ids)) != 1 {
			t.Fatalf("size %d: allocation %v not contiguous", size, ids)
		}
		a.Release(ids)
	}
}

func TestSubmeshExternalFragmentation(t *testing.T) {
	// Occupy a checkerboard of 2x2 blocks so no 3x3 free submesh exists
	// even though half the mesh is free.
	m := topo.New([]int{8, 8})
	a := NewSubmeshFirstFit(m)
	var wall []int
	for by := 0; by < 4; by++ {
		for bx := 0; bx < 4; bx++ {
			if (bx+by)%2 == 0 {
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						wall = append(wall, m.ID(topo.XY(bx*2+dx, by*2+dy)))
					}
				}
			}
		}
	}
	a.take(wall)
	if a.NumFree() != 32 {
		t.Fatalf("NumFree = %d", a.NumFree())
	}
	// 9 processors are free but no 3x3 (nor any covering shape) is.
	if _, err := a.Allocate(Request{Size: 9}); err != ErrInsufficient {
		t.Fatalf("fragmented submesh allocation: %v", err)
	}
	// A 2x2 still fits.
	ids, err := a.Allocate(Request{Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Components(ids)) != 1 {
		t.Fatal("2x2 not contiguous")
	}
}

func TestSubmeshFallbackShapes(t *testing.T) {
	// 20 processors on a 4x8 mesh: the near-square 5x4 does not fit a
	// width-4 mesh, but 4x5 (rotation) does.
	m := topo.New([]int{4, 8})
	a := NewSubmeshFirstFit(m)
	ids, err := a.Allocate(Request{Size: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 20 || len(m.Components(ids)) != 1 {
		t.Fatalf("fallback shape allocation: %d ids", len(ids))
	}
	// The whole mesh as one job.
	a.Release(ids)
	if _, err := a.Allocate(Request{Size: 32}); err != nil {
		t.Fatalf("full-mesh submesh: %v", err)
	}
}

func TestSubmeshShapeCandidatesFitMesh(t *testing.T) {
	m := topo.New([]int{16, 22})
	a := NewSubmeshFirstFit(m)
	f := func(sz uint16) bool {
		size := int(sz)%352 + 1
		for _, s := range a.candidateShapes(Request{Size: size}) {
			if s[0] > 16 || s[1] > 22 || s[0]*s[1] < size {
				return false
			}
		}
		return len(a.candidateShapes(Request{Size: size})) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyRequiresSquarePow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("16x22 buddy should panic")
		}
	}()
	NewBuddy(topo.New([]int{16, 22}))
}

func TestBuddySpecValidation(t *testing.T) {
	if _, err := Spec(topo.New([]int{16, 22}), "buddy", 1); err == nil {
		t.Fatal("buddy spec on non-square mesh should fail")
	}
	a, err := Spec(topo.New([]int{16, 16}), "buddy", 1)
	if err != nil || a.Name() != "buddy" {
		t.Fatalf("buddy spec: %v, %v", a, err)
	}
	s, err := Spec(topo.New([]int{16, 22}), "submesh", 1)
	if err != nil || s.Name() != "submesh" {
		t.Fatalf("submesh spec: %v, %v", s, err)
	}
}

func TestBuddyAllocatesSquareBlocks(t *testing.T) {
	m := topo.New([]int{8, 8})
	b := NewBuddy(m)
	// 5 processors round up to a 4x4 block: 16 processors held.
	ids, err := b.Allocate(Request{Size: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 {
		t.Fatalf("%d ids", len(ids))
	}
	if b.NumFree() != 64-16 {
		t.Fatalf("NumFree = %d, want 48", b.NumFree())
	}
	if len(m.Components(ids)) != 1 {
		t.Fatal("buddy allocation not contiguous")
	}
	b.Release(ids)
	if b.NumFree() != 64 {
		t.Fatalf("NumFree after release = %d", b.NumFree())
	}
}

func TestBuddySplitAndCoalesce(t *testing.T) {
	m := topo.New([]int{8, 8})
	b := NewBuddy(m)
	// Four 4x4 blocks fill the mesh.
	var live [][]int
	for i := 0; i < 4; i++ {
		ids, err := b.Allocate(Request{Size: 16})
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		live = append(live, ids)
	}
	if b.NumFree() != 0 {
		t.Fatalf("NumFree = %d", b.NumFree())
	}
	if _, err := b.Allocate(Request{Size: 1}); err != ErrInsufficient {
		t.Fatalf("full buddy mesh: %v", err)
	}
	// Release all; coalescing must restore the root block so a
	// full-mesh allocation succeeds.
	for _, ids := range live {
		b.Release(ids)
	}
	ids, err := b.Allocate(Request{Size: 64})
	if err != nil || len(ids) != 64 {
		t.Fatalf("root block after coalesce: %v, %v", len(ids), err)
	}
}

func TestBuddyExternalFragmentation(t *testing.T) {
	m := topo.New([]int{8, 8})
	b := NewBuddy(m)
	// Hold three 1-processor jobs: they burn 1x1 blocks out of one 2x2
	// region but force splits down the tree. Then a 64-proc request
	// cannot be served though 61 processors are free.
	var live [][]int
	for i := 0; i < 3; i++ {
		ids, err := b.Allocate(Request{Size: 1})
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, ids)
	}
	if _, err := b.Allocate(Request{Size: 64}); err != ErrInsufficient {
		t.Fatalf("fragmented buddy root: %v", err)
	}
	// A 16-proc request still fits in an untouched quadrant.
	if _, err := b.Allocate(Request{Size: 16}); err != nil {
		t.Fatalf("quadrant allocation: %v", err)
	}
	_ = live
}

func TestBuddyWorkloadProperty(t *testing.T) {
	// Random allocate/release sequences keep the accounting consistent
	// and always coalesce back to a full mesh.
	m := topo.New([]int{16, 16})
	f := func(ops []uint8) bool {
		b := NewBuddy(m)
		var live [][]int
		for _, op := range ops {
			if op%3 != 0 && b.NumFree() > 0 {
				size := int(op)%b.NumFree() + 1
				ids, err := b.Allocate(Request{Size: size})
				if err == ErrInsufficient {
					continue // fragmentation is legal
				}
				if err != nil || len(ids) != size {
					return false
				}
				live = append(live, ids)
			} else if len(live) > 0 {
				b.Release(live[len(live)-1])
				live = live[:len(live)-1]
			}
		}
		for _, ids := range live {
			b.Release(ids)
		}
		if b.NumFree() != 256 {
			return false
		}
		ids, err := b.Allocate(Request{Size: 256})
		return err == nil && len(ids) == 256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
