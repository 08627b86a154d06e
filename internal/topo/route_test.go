package topo

import (
	"fmt"
	"reflect"
	"testing"
)

// refCoord is the division form of Coord the coordinate table replaced:
// digits peeled from the highest axis down.
func refCoord(g *Grid, id int) Point {
	var p Point
	rem := id
	for i := g.nd - 1; i > 0; i-- {
		p[i] = rem / g.stride[i]
		rem -= p[i] * g.stride[i]
	}
	p[0] = rem
	return p
}

// refRoute is the hop-by-hop route walker RouteSegs replaced: on every
// hop it re-derives the direction (the shorter way around on a torus,
// positive on ties) and wraps the coordinate itself.
func refRoute(g *Grid, src, dst int, asc bool) []Link {
	cur, d := refCoord(g, src), refCoord(g, dst)
	id := src
	var links []Link
	for k := 0; k < g.nd; k++ {
		axis := k
		if !asc {
			axis = g.nd - 1 - k
		}
		extent, stride := g.dim[axis], g.stride[axis]
		for cur[axis] != d[axis] {
			dir := Dir(2 * axis)
			if g.torus {
				if fwd := ((d[axis] - cur[axis]) + extent) % extent; fwd > extent-fwd {
					dir++
				}
			} else if d[axis] < cur[axis] {
				dir++
			}
			links = append(links, Link{From: id, Dir: dir})
			if dir.Positive() {
				cur[axis]++
				id += stride
				if cur[axis] == extent {
					cur[axis] = 0
					id -= extent * stride
				}
			} else {
				cur[axis]--
				id -= stride
				if cur[axis] < 0 {
					cur[axis] = extent - 1
					id += extent * stride
				}
			}
		}
	}
	return links
}

// TestRouteSegsMatchesHopByHop checks every source/destination pair, in
// both axis orders, on meshes and tori with odd, even, unit and
// two-node extents: the runs RouteSegs emits expand to exactly the
// hop-by-hop route, each run is one straight line of links, and the
// table-backed Coord equals the division form.
func TestRouteSegsMatchesHopByHop(t *testing.T) {
	for _, dims := range [][]int{{9}, {6, 5}, {1, 7}, {2, 3}, {4, 3, 2}, {3, 1, 2, 5}, {5, 4, 3}} {
		for _, torus := range []bool{false, true} {
			g := New(dims)
			if torus {
				g = NewTorus(dims)
			}
			t.Run(fmt.Sprintf("%v/torus=%v", dims, torus), func(t *testing.T) {
				var segs [MaxSegs]Seg
				for src := 0; src < g.Size(); src++ {
					if got, want := g.Coord(src), refCoord(g, src); got != want {
						t.Fatalf("Coord(%d) = %v, want %v", src, got, want)
					}
					for dst := 0; dst < g.Size(); dst++ {
						for _, asc := range []bool{true, false} {
							want := refRoute(g, src, dst, asc)
							var got []Link
							if asc {
								got = g.AppendRoute(nil, src, dst)
							} else {
								got = g.AppendRouteRev(nil, src, dst)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("route %d->%d asc=%v: %v, want %v", src, dst, asc, got, want)
							}
							n := g.RouteSegs(&segs, src, dst, asc)
							hops := 0
							for _, s := range segs[:n] {
								if s.N <= 0 {
									t.Fatalf("route %d->%d asc=%v: empty run %+v", src, dst, asc, s)
								}
								hops += s.N
							}
							if hops != g.Dist(src, dst) {
								t.Fatalf("route %d->%d asc=%v: %d hops in runs, distance %d", src, dst, asc, hops, g.Dist(src, dst))
							}
						}
					}
				}
			})
		}
	}
}

// TestCheckDims pins the shapes New accepts: 1..MaxDims positive
// extents, none above MaxExtent, at most MaxNodes nodes.
func TestCheckDims(t *testing.T) {
	for _, ok := range [][]int{{1}, {16, 22}, {MaxExtent}, {MaxExtent, 32}, {128, 128, 128}, {2, 2, 2, 2}} {
		if err := CheckDims(ok); err != nil {
			t.Errorf("CheckDims(%v) = %v, want nil", ok, err)
		}
	}
	for _, bad := range [][]int{nil, {}, {0}, {-3, 4}, {MaxExtent + 1}, {70000, 2}, {100000, 100000},
		{MaxExtent, MaxExtent, MaxExtent, MaxExtent}, {2, 2, 2, 2, 2}, {MaxExtent, 33}} {
		if err := CheckDims(bad); err == nil {
			t.Errorf("CheckDims(%v) accepted", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an extent above MaxExtent")
		}
	}()
	New([]int{MaxExtent + 1})
}
