// Package metrics implements the dispersal metrics of Mache and Lo for
// judging the quality of a processor allocation, beyond the average
// pairwise distance the paper's MC1x1 and Gen-Alg optimize. Section 4.3
// of the paper evaluates how such metrics correlate with running time;
// this package provides the full family for that kind of study.
package metrics

import (
	"math"

	"meshalloc/internal/topo"
)

// Dispersal characterizes the geometric quality of one allocation.
type Dispersal struct {
	// AvgPairwise is the mean hop distance over processor pairs, the
	// metric of Mache and Lo used throughout the paper.
	AvgPairwise float64
	// MaxPairwise is the allocation's diameter in hops. Like
	// AvgPairwise it takes the short way around a torus.
	MaxPairwise int
	// AvgToCentroid is the mean Manhattan distance to the allocation's
	// centroid, a cheaper compactness proxy. It uses unwrapped
	// coordinates, also on a torus.
	AvgToCentroid float64
	// BoundingBoxFill is size / (bounding box volume): 1.0 for perfect
	// rectangles, small for scattered allocations. The box spans
	// unwrapped coordinates, also on a torus.
	BoundingBoxFill float64
	// Perimeter counts boundary edges: grid-adjacent (processor,
	// non-processor-or-edge) pairs. Compact shapes minimize it.
	Perimeter int
	// Components is the number of rectilinearly-connected components;
	// Contiguous mirrors the paper's Figure 11 definition.
	Components int
	Contiguous bool
}

// Measure computes all dispersal metrics for the allocation ids on g.
// An empty allocation yields the zero Dispersal.
func Measure(g *topo.Grid, ids []int) Dispersal {
	if len(ids) == 0 {
		return Dispersal{}
	}
	var d Dispersal
	d.AvgPairwise = g.AvgPairwiseDist(ids)
	d.MaxPairwise = maxPairwise(g, ids)
	d.AvgToCentroid = avgToCentroid(g, ids)
	d.BoundingBoxFill = boundingBoxFill(g, ids)
	d.Perimeter = perimeter(g, ids)
	comps := g.Components(ids)
	d.Components = len(comps)
	d.Contiguous = len(comps) == 1
	return d
}

func maxPairwise(g *topo.Grid, ids []int) int {
	max := 0
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if d := g.Dist(ids[i], ids[j]); d > max {
				max = d
			}
		}
	}
	return max
}

func avgToCentroid(g *topo.Grid, ids []int) float64 {
	var c [topo.MaxDims]float64
	for _, id := range ids {
		p := g.Coord(id)
		for i := 0; i < g.ND(); i++ {
			c[i] += float64(p[i])
		}
	}
	for i := range c {
		c[i] /= float64(len(ids))
	}
	total := 0.0
	for _, id := range ids {
		p := g.Coord(id)
		d := 0.0
		for i := 0; i < g.ND(); i++ {
			d += math.Abs(float64(p[i]) - c[i])
		}
		total += d
	}
	return total / float64(len(ids))
}

func boundingBoxFill(g *topo.Grid, ids []int) float64 {
	lo := g.Coord(ids[0])
	hi := lo
	for _, id := range ids[1:] {
		p := g.Coord(id)
		for i := 0; i < g.ND(); i++ {
			lo[i] = min(lo[i], p[i])
			hi[i] = max(hi[i], p[i])
		}
	}
	vol := 1
	for i := 0; i < g.ND(); i++ {
		vol *= hi[i] - lo[i] + 1
	}
	return float64(len(ids)) / float64(vol)
}

func perimeter(g *topo.Grid, ids []int) int {
	in := make(map[int]bool, len(ids))
	for _, id := range ids {
		in[id] = true
	}
	edges := 0
	for _, id := range ids {
		for d := topo.Dir(0); int(d) < g.NumDirs(); d++ {
			nb, ok := g.Neighbor(id, d)
			if !ok || !in[nb] {
				edges++
			}
		}
	}
	return edges
}

// Summary aggregates dispersal metrics over many allocations (e.g. all
// jobs of a run).
type Summary struct {
	N                  int
	MeanAvgPairwise    float64
	MeanBoundingFill   float64
	MeanComponents     float64
	PctContiguous      float64
	MeanPerimeterRatio float64 // perimeter / ideal square perimeter
}

// Summarize folds per-allocation metrics into a Summary.
func Summarize(ms []Dispersal, sizes []int) Summary {
	if len(ms) != len(sizes) {
		panic("metrics: mismatched metric and size slices")
	}
	var s Summary
	s.N = len(ms)
	if s.N == 0 {
		return s
	}
	contig := 0
	for i, d := range ms {
		s.MeanAvgPairwise += d.AvgPairwise
		s.MeanBoundingFill += d.BoundingBoxFill
		s.MeanComponents += float64(d.Components)
		if d.Contiguous {
			contig++
		}
		s.MeanPerimeterRatio += float64(d.Perimeter) / idealPerimeter(sizes[i])
	}
	n := float64(s.N)
	s.MeanAvgPairwise /= n
	s.MeanBoundingFill /= n
	s.MeanComponents /= n
	s.MeanPerimeterRatio /= n
	s.PctContiguous = 100 * float64(contig) / n
	return s
}

// idealPerimeter returns the boundary edge count of the most compact
// (near-square) arrangement of k processors.
func idealPerimeter(k int) float64 {
	if k <= 0 {
		return 1
	}
	side := math.Sqrt(float64(k))
	return 4 * side
}
