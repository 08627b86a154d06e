package metrics

import (
	"testing"
	"testing/quick"

	"meshalloc/internal/topo"
)

func TestFragmentationEmptyMesh(t *testing.T) {
	m := topo.New([]int{6, 4})
	f := MeasureFragmentation(m, make([]bool, 24))
	if f.FreeProcs != 24 || f.LargestRect != 24 || f.External != 0 {
		t.Fatalf("empty mesh fragmentation = %+v", f)
	}
	if f.LargestRectW*f.LargestRectH != 24 {
		t.Fatalf("rect dims %dx%d", f.LargestRectW, f.LargestRectH)
	}
}

func TestFragmentationFullMesh(t *testing.T) {
	m := topo.New([]int{3, 3})
	busy := make([]bool, 9)
	for i := range busy {
		busy[i] = true
	}
	f := MeasureFragmentation(m, busy)
	if f.FreeProcs != 0 || f.LargestRect != 0 {
		t.Fatalf("full mesh fragmentation = %+v", f)
	}
}

func TestFragmentationWall(t *testing.T) {
	// A busy middle column splits an 5x4 mesh into 2x4 and 2x4 halves.
	m := topo.New([]int{5, 4})
	var busyIDs []int
	for y := 0; y < 4; y++ {
		busyIDs = append(busyIDs, m.ID(topo.XY(2, y)))
	}
	f := MeasureFragmentation(m, BusyMask(m, busyIDs))
	if f.FreeProcs != 16 {
		t.Fatalf("free = %d", f.FreeProcs)
	}
	if f.LargestRect != 8 {
		t.Fatalf("largest rect = %d, want 8", f.LargestRect)
	}
	if f.External != 0.5 {
		t.Fatalf("external = %g, want 0.5", f.External)
	}
}

func TestFragmentationCheckerboard(t *testing.T) {
	m := topo.New([]int{4, 4})
	var busyIDs []int
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if (x+y)%2 == 0 {
				busyIDs = append(busyIDs, m.ID(topo.XY(x, y)))
			}
		}
	}
	f := MeasureFragmentation(m, BusyMask(m, busyIDs))
	if f.LargestRect != 1 {
		t.Fatalf("checkerboard largest rect = %d, want 1", f.LargestRect)
	}
	if f.External != 1-1.0/8.0 {
		t.Fatalf("external = %g", f.External)
	}
}

func TestFragmentationLShape(t *testing.T) {
	// Busy block in the top-right corner leaves an L; the largest free
	// rectangle is the full-height left part.
	m := topo.New([]int{6, 6})
	var busyIDs []int
	for y := 3; y < 6; y++ {
		for x := 3; x < 6; x++ {
			busyIDs = append(busyIDs, m.ID(topo.XY(x, y)))
		}
	}
	f := MeasureFragmentation(m, BusyMask(m, busyIDs))
	if f.LargestRect != 18 {
		t.Fatalf("L-shape largest rect = %d, want 18 (3x6)", f.LargestRect)
	}
}

func TestLargestRectProperty(t *testing.T) {
	// Property: the reported rectangle never exceeds the free count and
	// a brute-force scan over all rectangles agrees.
	m := topo.New([]int{5, 5})
	f := func(mask uint32) bool {
		busy := make([]bool, 25)
		for i := 0; i < 25; i++ {
			busy[i] = mask&(1<<uint(i)) != 0
		}
		got, _, _ := largestFreeRect(m, busy)
		want := bruteLargestRect(m, busy)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func bruteLargestRect(m *topo.Grid, busy []bool) int {
	best := 0
	for y0 := 0; y0 < m.Dim(1); y0++ {
		for x0 := 0; x0 < m.Dim(0); x0++ {
			for y1 := y0; y1 < m.Dim(1); y1++ {
				for x1 := x0; x1 < m.Dim(0); x1++ {
					ok := true
				scan:
					for y := y0; y <= y1; y++ {
						for x := x0; x <= x1; x++ {
							if busy[y*m.Dim(0)+x] {
								ok = false
								break scan
							}
						}
					}
					if ok {
						if a := (x1 - x0 + 1) * (y1 - y0 + 1); a > best {
							best = a
						}
					}
				}
			}
		}
	}
	return best
}

func TestBusyMaskPanicsViaMeasure(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch should panic")
		}
	}()
	MeasureFragmentation(topo.New([]int{4, 4}), make([]bool, 3))
}
