package curve

import "meshalloc/internal/topo"

// LocalityReport summarizes how well a curve ordering preserves mesh
// locality, the property Leung et al. argue makes a page ordering good.
type LocalityReport struct {
	// MaxStep is the largest Manhattan distance between curve-consecutive
	// nodes (1 for a gap-free Hamiltonian path).
	MaxStep int
	// AvgStep is the mean Manhattan distance between curve-consecutive
	// nodes.
	AvgStep float64
	// Gaps counts curve-consecutive pairs that are not mesh-adjacent —
	// the discontinuities introduced by truncating a power-of-two curve
	// (arrows in the paper's Figure 6).
	Gaps int
	// MaxAdjacencyStretch is the largest rank difference between
	// mesh-adjacent nodes; small values mean mesh neighbours stay close
	// along the curve.
	MaxAdjacencyStretch int
}

// Locality computes the locality metrics of an ordering of a w x h mesh.
func Locality(order []int, w, h int) LocalityReport {
	g := topo.New([]int{w, h})
	ranks := Ranks(order)
	var rep LocalityReport
	total := 0
	for i := 1; i < len(order); i++ {
		d := g.Dist(order[i-1], order[i])
		total += d
		if d > rep.MaxStep {
			rep.MaxStep = d
		}
		if d > 1 {
			rep.Gaps++
		}
	}
	if len(order) > 1 {
		rep.AvgStep = float64(total) / float64(len(order)-1)
	}
	for id := 0; id < g.Size(); id++ {
		for dir := topo.Dir(0); int(dir) < g.NumDirs(); dir++ {
			nb, ok := g.Neighbor(id, dir)
			if !ok {
				continue
			}
			stretch := ranks[id] - ranks[nb]
			if stretch < 0 {
				stretch = -stretch
			}
			if stretch > rep.MaxAdjacencyStretch {
				rep.MaxAdjacencyStretch = stretch
			}
		}
	}
	return rep
}

// Render draws the ordering as an ASCII grid of curve ranks, one row of
// the mesh per line, for the curve-visualization tool (paper Figures 2
// and 6).
func Render(order []int, w, h int) string {
	ranks := Ranks(order)
	width := 1
	for n := len(order) - 1; n >= 10; n /= 10 {
		width++
	}
	buf := make([]byte, 0, (width+1)*w*h+h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x > 0 {
				buf = append(buf, ' ')
			}
			buf = appendPadded(buf, ranks[y*w+x], width)
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}

func appendPadded(buf []byte, v, width int) []byte {
	digits := 1
	for n := v; n >= 10; n /= 10 {
		digits++
	}
	for i := digits; i < width; i++ {
		buf = append(buf, ' ')
	}
	start := len(buf)
	if v == 0 {
		return append(buf, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(buf[:start], tmp[i:]...)
}
