package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"meshalloc/internal/topo"
)

func block(m *topo.Grid, x0, y0, w, h int) []int {
	return m.Nodes(topo.Box{Origin: topo.XY(x0, y0), Ext: topo.Point{w, h, 1, 1}})
}

func TestMeasureSquareBlock(t *testing.T) {
	m := topo.New([]int{8, 8})
	d := Measure(m, block(m, 2, 2, 3, 3))
	if d.AvgPairwise != 2.0 {
		t.Errorf("AvgPairwise = %g, want 2 (3x3 block)", d.AvgPairwise)
	}
	if d.MaxPairwise != 4 {
		t.Errorf("MaxPairwise = %d, want 4", d.MaxPairwise)
	}
	if d.BoundingBoxFill != 1.0 {
		t.Errorf("BoundingBoxFill = %g, want 1", d.BoundingBoxFill)
	}
	if d.Perimeter != 12 {
		t.Errorf("Perimeter = %d, want 12", d.Perimeter)
	}
	if !d.Contiguous || d.Components != 1 {
		t.Error("3x3 block should be one component")
	}
	// Centroid is the middle cell: mean distance = (8*1 + ... )
	// distances to center of 3x3: four at 1, four at 2, one at 0 -> 12/9.
	if math.Abs(d.AvgToCentroid-12.0/9.0) > 1e-12 {
		t.Errorf("AvgToCentroid = %g", d.AvgToCentroid)
	}
}

// TestMeasureTorusWraps: on a torus MaxPairwise takes the short way
// around each axis, as AvgPairwise does.
func TestMeasureTorusWraps(t *testing.T) {
	m := topo.NewTorus([]int{16, 16})
	d := Measure(m, []int{0, 15})
	if d.AvgPairwise != 1 || d.MaxPairwise != 1 {
		t.Errorf("wrap-adjacent pair: AvgPairwise %g, MaxPairwise %d, want 1 and 1",
			d.AvgPairwise, d.MaxPairwise)
	}
	// A 2x2 block across both seams.
	if d := Measure(m, []int{0, 15, 240, 255}); d.MaxPairwise != 2 {
		t.Errorf("2x2 block across the seams: MaxPairwise %d, want 2", d.MaxPairwise)
	}
	// No two nodes of the 16x16 torus are more than 16 hops apart.
	all := make([]int, m.Size())
	for i := range all {
		all[i] = i
	}
	if d := Measure(m, all); d.MaxPairwise != 16 {
		t.Errorf("whole torus: MaxPairwise %d, want 16", d.MaxPairwise)
	}
}

func TestMeasureScattered(t *testing.T) {
	m := topo.New([]int{8, 8})
	corners := []int{
		m.ID(topo.XY(0, 0)), m.ID(topo.XY(7, 0)),
		m.ID(topo.XY(0, 7)), m.ID(topo.XY(7, 7)),
	}
	d := Measure(m, corners)
	if d.Components != 4 || d.Contiguous {
		t.Error("corners should be four components")
	}
	if d.MaxPairwise != 14 {
		t.Errorf("MaxPairwise = %d, want 14", d.MaxPairwise)
	}
	if d.BoundingBoxFill != 4.0/64.0 {
		t.Errorf("BoundingBoxFill = %g", d.BoundingBoxFill)
	}
	// Each corner node exposes all four sides (two to free processors,
	// two to the mesh edge).
	if d.Perimeter != 16 {
		t.Errorf("Perimeter = %d, want 16", d.Perimeter)
	}
}

func TestMeasureEmptyAndSingle(t *testing.T) {
	m := topo.New([]int{4, 4})
	if d := Measure(m, nil); d != (Dispersal{}) {
		t.Errorf("empty Measure = %+v", d)
	}
	d := Measure(m, []int{5})
	if d.AvgPairwise != 0 || d.Components != 1 || !d.Contiguous || d.BoundingBoxFill != 1 {
		t.Errorf("singleton Measure = %+v", d)
	}
}

func TestCompactBeatsScatteredOnEveryMetric(t *testing.T) {
	m := topo.New([]int{16, 16})
	compact := block(m, 0, 0, 4, 4)
	scattered := []int{}
	for i := 0; i < 16; i++ {
		scattered = append(scattered, m.ID(topo.XY((i*5)%16, (i*7)%16)))
	}
	dc := Measure(m, compact)
	ds := Measure(m, scattered)
	if dc.AvgPairwise >= ds.AvgPairwise {
		t.Error("compact should have smaller pairwise distance")
	}
	if dc.Perimeter >= ds.Perimeter {
		t.Error("compact should have smaller perimeter")
	}
	if dc.BoundingBoxFill <= ds.BoundingBoxFill {
		t.Error("compact should fill its bounding box better")
	}
	if dc.Components >= ds.Components {
		t.Error("compact should have fewer components")
	}
}

func TestPerimeterProperty(t *testing.T) {
	// Property: perimeter is between the ideal (4*sqrt(k) rounded
	// shape) and the maximum 4k (isolated nodes).
	m := topo.New([]int{10, 10})
	f := func(mask uint64) bool {
		var ids []int
		for i := 0; i < 64; i++ {
			if mask&(1<<uint(i)) != 0 {
				ids = append(ids, i)
			}
		}
		if len(ids) == 0 {
			return true
		}
		d := Measure(m, ids)
		return d.Perimeter <= 4*len(ids) && d.Perimeter >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	m := topo.New([]int{8, 8})
	a := Measure(m, block(m, 0, 0, 2, 2))
	b := Measure(m, []int{0, 63})
	// b uses nodes 0 and 63 which overlap a's nodes; fine for metrics.
	s := Summarize([]Dispersal{a, b}, []int{4, 2})
	if s.N != 2 {
		t.Fatalf("N = %d", s.N)
	}
	if s.PctContiguous != 50 {
		t.Errorf("PctContiguous = %g, want 50", s.PctContiguous)
	}
	if s.MeanComponents != 1.5 {
		t.Errorf("MeanComponents = %g, want 1.5", s.MeanComponents)
	}
}

func TestSummarizePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched slices should panic")
		}
	}()
	Summarize([]Dispersal{{}}, nil)
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, nil)
	if s.N != 0 || s.PctContiguous != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}
