package topo

// Word-order helpers: the dense id layout (axis 0 fastest) means ids group
// naturally into "rows" of Dim(0) consecutive ids, which is exactly the
// shape word-parallel bitset free-maps want — one row per run of axis-0
// neighbours, packed into 64-bit words. These helpers name that mapping so
// allocators don't re-derive the arithmetic.

// RowOf splits a dense id into its axis-0 row index and the offset within
// that row: id == row*Dim(0) + offset with 0 <= offset < Dim(0). The row
// index equals the id of the row's first node divided by Dim(0), so rows
// number consecutively in id order.
func (g *Grid) RowOf(id int) (row, offset int) {
	return id / g.dim[0], id % g.dim[0]
}
