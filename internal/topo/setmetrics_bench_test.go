package topo_test

import (
	"testing"

	"meshalloc/internal/curve"
	"meshalloc/internal/topo"
)

// setStatsSink keeps the benchmarked results live.
var setStatsSink int

// shellList gathers an MC-style node list: shells around a 1x1 center,
// in shell order, skipping every fifth node as if it were busy, until n
// nodes are taken. Such a list is rarely a walk.
func shellList(g *topo.Grid, c topo.Point, n int) []int {
	var ids []int
	seen := 0
	for k := 0; len(ids) < n; k++ {
		g.ShellEach(c, topo.Point{1, 1, 1, 1}, k, func(id int) bool {
			if seen++; seen%5 != 0 && len(ids) < n {
				ids = append(ids, id)
			}
			return true
		})
	}
	return ids
}

// BenchmarkSetStats times the finish metrics on the node lists the
// benchmark workloads produce: intervals of the Hilbert curve (the walks
// hilbert/bestfit returns on open-poisson and faults-ckpt), and
// shell-ordered MC lists on paper-fig7's 16x22 and alloc-3d's
// 16x16x16, which take the flood fill.
func BenchmarkSetStats(b *testing.B) {
	g2 := topo.New([]int{16, 16})
	hilbert := curve.Hilbert{}.Order(16, 16)
	g22 := topo.New([]int{16, 22})
	g3 := topo.New([]int{16, 16, 16})
	cases := []struct {
		name string
		g    *topo.Grid
		ids  []int
	}{
		{"16x16/hilbert-14", g2, hilbert[37:51]},
		{"16x16/hilbert-64", g2, hilbert[37:101]},
		{"16x22/mc-shell-32", g22, shellList(g22, topo.XY(7, 10), 32)},
		{"16x16x16/mc-shell-64", g3, shellList(g3, topo.Point{7, 8, 9}, 64)},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			var sc topo.SetScratch
			bc.g.SetStats(bc.ids, &sc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				comps, pairDist := bc.g.SetStats(bc.ids, &sc)
				setStatsSink += comps + pairDist
			}
		})
	}
}
