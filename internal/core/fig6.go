package core

import (
	"fmt"
	"strings"

	"meshalloc/internal/curve"
	"meshalloc/internal/topo"
)

// Fig6 reproduces Figure 6: the top rows of the Hilbert and H-indexing
// orderings on the 16x22 mesh, truncated from 32x32 curves, with the rank
// gaps ("arrows" in the paper) that truncation introduces.
func Fig6() *Figure {
	fig := &Figure{
		ID:    "fig6",
		Title: "Truncated Hilbert and H-indexing orderings on the 16x22 mesh",
	}
	m := topo.New([]int{16, 22})
	for _, name := range []string{"hilbert", "hindex"} {
		c, err := curve.ByName(name)
		if err != nil {
			// The registry is static; a miss is a programming error.
			panic(err)
		}
		order := c.Order(16, 22)
		rep := curve.Locality(order, 16, 22)
		var gaps []string
		for i := 1; i < len(order); i++ {
			if m.Dist(order[i-1], order[i]) > 1 {
				a, b := m.Coord(order[i-1]), m.Coord(order[i])
				gaps = append(gaps, fmt.Sprintf("(%d,%d)->(%d,%d)", a[0], a[1], b[0], b[1]))
			}
		}
		t := Table{
			Columns: []string{name, ""},
			Rows: [][]string{
				{"rank grid (top 6 rows)", ""},
			},
		}
		rendered := curve.Render(order, 16, 22)
		lines := strings.Split(strings.TrimRight(rendered, "\n"), "\n")
		for i := 0; i < 6 && i < len(lines); i++ {
			t.Rows = append(t.Rows, []string{lines[i], ""})
		}
		fig.Tables = append(fig.Tables, t)
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("%s: %d gaps after truncation (paper's arrows): %s",
				name, rep.Gaps, strings.Join(gaps, ", ")))
	}
	return fig
}
