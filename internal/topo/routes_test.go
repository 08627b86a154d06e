package topo

// Dimension-ordered routes as the topo tests see them. Routing itself
// lives in the network model (netsim's walker); these are the reference
// forms the package's route tests pin: ascending axis order (axis 0
// first) is the n-D generalization of x-y routing, descending order
// generalizes y-x, and on a torus each axis takes the shorter way around
// (positive on ties). RouteSegs describes a route as straight runs of
// dense link indices; the []Link forms expand the same runs.

// Seg is one straight run of a route: N consecutive links along one
// axis, the k-th of which has dense link index First + k*Stride (see
// LinkIndex).
type Seg struct {
	First, Stride, N int
}

// MaxSegs bounds the runs of one route: one per axis, plus one more on
// each torus axis whose run wraps around.
const MaxSegs = 2 * MaxDims

// RouteSegs writes the dimension-ordered route from src to dst into segs,
// in traversal order, and returns the number of runs written: zero when
// src == dst. asc selects ascending axis order (x-y), otherwise
// descending (y-x). A plain-grid axis is always one run with a constant
// stride; a torus axis splits into two where it wraps.
func (g *Grid) RouteSegs(segs *[MaxSegs]Seg, src, dst int, asc bool) int {
	cs, cd := &g.coords[src], &g.coords[dst]
	nd2 := g.NumDirs()
	id, n := src, 0
	for k := 0; k < g.nd; k++ {
		a := k
		if !asc {
			a = g.nd - 1 - k
		}
		from, to := int(cs[a]), int(cd[a])
		if from == to {
			continue
		}
		hops, dir := to-from, 2*a
		if g.torus {
			ext := g.dim[a]
			if fwd := (hops + ext) % ext; fwd <= ext-fwd {
				hops = fwd
			} else {
				hops, dir = ext-fwd, dir+1
			}
		} else if hops < 0 {
			hops, dir = -hops, dir+1
		}
		stride := g.lstride[a]
		// run is the number of links before the walk wraps: up to the
		// last coordinate going up, down to 0 going down.
		run, wrapAt := hops, 0
		if dir&1 != 0 {
			stride = -stride
			if g.torus && run > from+1 {
				run, wrapAt = from+1, g.dim[a]-1
			}
		} else if g.torus && run > g.dim[a]-from {
			run = g.dim[a] - from
		}
		segs[n] = Seg{First: id*nd2 + dir, Stride: stride, N: run}
		n++
		if run < hops {
			wrapID := id + (wrapAt-from)*g.stride[a]
			segs[n] = Seg{First: wrapID*nd2 + dir, Stride: stride, N: hops - run}
			n++
		}
		id += (to - from) * g.stride[a]
	}
	return n
}

// Route returns the ascending dimension-ordered route from src to dst as
// the ordered sequence of directed links traversed. An empty slice means
// src == dst.
func (g *Grid) Route(src, dst int) []Link {
	return g.AppendRoute(make([]Link, 0, g.Dist(src, dst)), src, dst)
}

// AppendRoute appends the ascending dimension-ordered route from src to
// dst to links and returns the extended slice. It is the
// allocation-free variant of Route for callers that reuse a scratch
// buffer per message.
func (g *Grid) AppendRoute(links []Link, src, dst int) []Link {
	return g.appendRouteDimOrdered(links, src, dst, true)
}

// AppendRouteRev is AppendRoute with the axes resolved in descending
// order (the n-D generalization of y-x routing).
func (g *Grid) AppendRouteRev(links []Link, src, dst int) []Link {
	return g.appendRouteDimOrdered(links, src, dst, false)
}

// appendRouteDimOrdered expands RouteSegs into links.
func (g *Grid) appendRouteDimOrdered(links []Link, src, dst int, asc bool) []Link {
	var segs [MaxSegs]Seg
	for _, s := range segs[:g.RouteSegs(&segs, src, dst, asc)] {
		for k, li := 0, s.First; k < s.N; k, li = k+1, li+s.Stride {
			links = append(links, g.LinkAt(li))
		}
	}
	return links
}

// LinkAt returns the link with the given dense index, the inverse of
// LinkIndex.
func (g *Grid) LinkAt(idx int) Link {
	n := g.NumDirs()
	return Link{From: idx / n, Dir: Dir(idx % n)}
}
