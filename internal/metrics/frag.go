package metrics

import "meshalloc/internal/topo"

// Fragmentation characterizes the free space of a machine state: how
// much of it could serve a contiguous (submesh) request. It quantifies
// the external fragmentation that makes contiguous-only allocators
// refuse requests smaller than the free processor count.
type Fragmentation struct {
	// FreeProcs is the number of free processors.
	FreeProcs int
	// LargestRect is the area of the largest fully-free submesh.
	LargestRect int
	// LargestRectW, LargestRectH are its dimensions.
	LargestRectW, LargestRectH int
	// External is 1 - LargestRect/FreeProcs: 0 when all free space is
	// one rectangle, approaching 1 as the free set shatters.
	External float64
}

// MeasureFragmentation computes the fragmentation of a 2-D machine
// state given the busy processor set.
func MeasureFragmentation(g *topo.Grid, busy []bool) Fragmentation {
	if len(busy) != g.Size() {
		panic("metrics: busy mask size mismatch")
	}
	var f Fragmentation
	for _, b := range busy {
		if !b {
			f.FreeProcs++
		}
	}
	if f.FreeProcs == 0 {
		return f
	}
	f.LargestRect, f.LargestRectW, f.LargestRectH = largestFreeRect(g, busy)
	f.External = 1 - float64(f.LargestRect)/float64(f.FreeProcs)
	return f
}

// largestFreeRect finds the maximal all-free axis-aligned rectangle via
// the classic row-histogram / stack algorithm in O(W*H).
func largestFreeRect(g *topo.Grid, busy []bool) (area, w, h int) {
	width := g.Dim(0)
	heights := make([]int, width)
	type stackEntry struct{ height, start int }
	for y := 0; y < g.Dim(1); y++ {
		for x := 0; x < width; x++ {
			if busy[y*width+x] {
				heights[x] = 0
			} else {
				heights[x]++
			}
		}
		// Largest rectangle in histogram for this row.
		stack := make([]stackEntry, 0, width+1)
		for x := 0; x <= width; x++ {
			cur := 0
			if x < width {
				cur = heights[x]
			}
			start := x
			for len(stack) > 0 && stack[len(stack)-1].height > cur {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if a := top.height * (x - top.start); a > area {
					area, w, h = a, x-top.start, top.height
				}
				start = top.start
			}
			if cur > 0 && (len(stack) == 0 || stack[len(stack)-1].height < cur) {
				stack = append(stack, stackEntry{height: cur, start: start})
			}
		}
	}
	return area, w, h
}

// BusyMask builds a busy mask from a list of busy processor ids.
func BusyMask(g *topo.Grid, busyIDs []int) []bool {
	mask := make([]bool, g.Size())
	for _, id := range busyIDs {
		mask[id] = true
	}
	return mask
}
