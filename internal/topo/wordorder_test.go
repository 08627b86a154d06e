package topo

import "testing"

func TestRowOfRoundTrip(t *testing.T) {
	for _, dims := range [][]int{{7}, {5, 3}, {4, 3, 2}, {3, 2, 2, 2}} {
		g := New(dims)
		prevRow := -1
		for id := 0; id < g.Size(); id++ {
			row, off := g.RowOf(id)
			if row*g.Dim(0)+off != id {
				t.Fatalf("dims %v id %d: row %d offset %d does not round-trip", dims, id, row, off)
			}
			if off < 0 || off >= g.Dim(0) || row < 0 || row >= g.Size()/g.Dim(0) {
				t.Fatalf("dims %v id %d: row %d offset %d out of range", dims, id, row, off)
			}
			// Offsets within a row must match axis-0 coordinates and rows
			// must advance monotonically in id order.
			if g.Coord(id)[0] != off {
				t.Fatalf("dims %v id %d: offset %d but coord x %d", dims, id, off, g.Coord(id)[0])
			}
			if row < prevRow {
				t.Fatalf("dims %v id %d: row went backwards", dims, id)
			}
			prevRow = row
		}
	}
}
