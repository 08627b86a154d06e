package topo

import "math"

// This file holds SetStats, the node-set metrics behind every finished
// job's record: the number of rectilinear components (contiguity, the
// paper's Fig 11) and the total pairwise hop distance (dispersal,
// Fig 9). Both are exact to the bit against the reference walks
// Components and TotalPairwiseDist in topo.go, which stay as the test
// oracles. SetStats makes one pass over the ids:
//
//   - Each node's coordinates come from the grid's coordinate table and
//     are counted into one histogram per axis, while the pass tracks the
//     set's bounding box. Hop distance decomposes axis by axis, and each
//     axis' sum over pairs is an integer prefix-sum identity over its
//     histogram (a sum over bucket pairs on a torus), so the total is the
//     same int the O(k²) double loop produces. The prefix-sum pass reads
//     only the box's buckets and zeroes each one after reading it, so the
//     histograms are all zero between calls and never need a clear.
//   - The same pass checks that each consecutive pair of ids is at hop
//     distance exactly 1: one axis differs by one step (wrapping on a
//     torus) and every other axis agrees. A list that is such a walk is
//     connected, since each node is adjacent to the one before it, so it
//     is one component and the flood fill is skipped. Curve allocators
//     return a job's nodes in curve order, so a job placed on consecutive
//     curve positions is a walk; BENCH.md gives the share of walks on
//     each benchmark workload.
//   - Any other list goes to a flood fill over the same table. It keeps
//     one uint32 mark per node and advances an epoch by two per fill:
//     one value means "in the set", the next "visited", so no fill has to
//     clear the marks of the one before. The component count does not
//     depend on traversal order, so it equals len(Components(ids)).
//
// The caller owns the *SetScratch, which keeps steady-state use
// allocation-free.

// SetScratch is reusable state for SetStats. The zero value is ready to
// use; one scratch may be shared across any grids but not across
// goroutines.
type SetScratch struct {
	hist  [MaxDims][]int // per-axis coordinate counts, all zero between calls
	mark  []uint32       // flood-fill marks, indexed by node id
	epoch uint32         // mark value of a visited node in the current fill
	stack []int
}

// SetStats returns len(Components(ids)) and TotalPairwiseDist(ids): the
// number of rectilinear components of the node set and the sum of hop
// distances over its unordered pairs. It costs O(k·nd + Σ box extents)
// on a mesh, plus an O(extent²) pass over each wrapped axis' occupied
// buckets on a torus, and a flood fill only when ids is not a walk of
// grid-adjacent nodes.
func (g *Grid) SetStats(ids []int, sc *SetScratch) (comps, pairDist int) {
	if len(ids) == 0 {
		return 0, 0
	}
	for a := 0; a < g.nd; a++ {
		if len(sc.hist[a]) < g.dim[a] {
			sc.hist[a] = make([]int, g.dim[a])
		}
	}
	var lo, hi [MaxDims]int
	prev := g.coords[ids[0]]
	for a := 0; a < g.nd; a++ {
		lo[a], hi[a] = int(prev[a]), int(prev[a])
	}
	walk := true
	for i, id := range ids {
		c := g.coords[id]
		step := 0
		for a := 0; a < g.nd; a++ {
			v := int(c[a])
			sc.hist[a][v]++
			lo[a] = min(lo[a], v)
			hi[a] = max(hi[a], v)
			step += g.axisDist(v, int(prev[a]), g.dim[a])
		}
		if step != 1 && i > 0 {
			walk = false
		}
		prev = c
	}
	for a := 0; a < g.nd; a++ {
		// Bucket offsets within the box stand in for coordinates: both
		// distance rules depend only on differences.
		box := sc.hist[a][lo[a] : hi[a]+1]
		if g.torus {
			// Wrapped axis: pair the occupied buckets directly. Extents
			// are machine side lengths, so the quadratic term is small.
			for i, ha := range box {
				if ha == 0 {
					continue
				}
				for j := i + 1; j < len(box); j++ {
					if hj := box[j]; hj != 0 {
						pairDist += ha * hj * g.axisDist(i, j, g.dim[a])
					}
				}
				box[i] = 0
			}
			continue
		}
		// Plain axis: each bucket adds (count below)*v - (sum below).
		cnt, sum := 0, 0
		for v, h := range box {
			pairDist += h * (cnt*v - sum)
			cnt += h
			sum += h * v
			box[v] = 0
		}
	}
	if walk {
		return 1, pairDist
	}
	return g.floodComponents(ids, sc), pairDist
}

// floodComponents counts the components of ids by flood fill, stepping
// to neighbors by stride arithmetic guarded by the coordinate table.
func (g *Grid) floodComponents(ids []int, sc *SetScratch) int {
	if len(sc.mark) < g.size {
		sc.mark = make([]uint32, g.size)
	}
	if sc.epoch > math.MaxUint32-2 {
		clear(sc.mark)
		sc.epoch = 0
	}
	sc.epoch += 2
	in, seen := sc.epoch-1, sc.epoch
	for _, id := range ids {
		sc.mark[id] = in
	}
	comps := 0
	stack := sc.stack[:0]
	for _, start := range ids {
		if sc.mark[start] != in {
			continue
		}
		comps++
		sc.mark[start] = seen
		stack = append(stack, start)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			c := g.coords[u]
			for a := 0; a < g.nd; a++ {
				ext := g.dim[a]
				if ext == 1 {
					continue
				}
				stride := g.stride[a]
				ca := int(c[a])
				// Toward increasing coordinates, wrapping on a torus.
				v := -1
				if ca+1 < ext {
					v = u + stride
				} else if g.torus {
					v = u - stride*(ext-1)
				}
				if v >= 0 && sc.mark[v] == in {
					sc.mark[v] = seen
					stack = append(stack, v)
				}
				// Toward decreasing coordinates.
				v = -1
				if ca > 0 {
					v = u - stride
				} else if g.torus {
					v = u + stride*(ext-1)
				}
				if v >= 0 && sc.mark[v] == in {
					sc.mark[v] = seen
					stack = append(stack, v)
				}
			}
		}
	}
	sc.stack = stack[:0]
	return comps
}
