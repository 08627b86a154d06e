package core

import (
	"fmt"

	"meshalloc/internal/comm"
	"meshalloc/internal/curve"
	"meshalloc/internal/netsim"
	"meshalloc/internal/stats"
	"meshalloc/internal/topo"
)

// Fig1 reproduces Figure 1: the CPlant experiment of Leung et al. that
// motivated the paper. Thirty-processor jobs run the communication test
// suite (all-to-all broadcast, all-pairs ping-pong, ring — one hundred
// rounds) on allocations of varying dispersal; running time is plotted
// against the allocation's average pairwise hop count.
//
// The paper's version ran on CPlant hardware; here each allocation runs
// alone on a simulated 16x22 mesh, which reproduces the correlation the
// figure exists to show (self-contention grows with dispersal).
func Fig1(o Options) (*Figure, error) {
	o = o.withDefaults()
	const (
		jobSize = 30
		rounds  = 100
	)
	m := topo.New([]int{16, 22})
	rng := stats.NewRNG(o.Seed)

	// Sample allocations across the dispersal spectrum: the 30 nodes are
	// drawn from windows of the Hilbert order whose span grows from
	// perfectly compact (30) to the whole machine, then shuffled windows
	// for the high-dispersal tail.
	order := curve.Hilbert{}.Order(16, 22)
	allocations := make([][]int, 0, 40)
	for span := jobSize; span <= len(order); span += (len(order) - jobSize) / 12 {
		for trial := 0; trial < 3; trial++ {
			start := 0
			if len(order) > span {
				start = rng.Intn(len(order) - span)
			}
			window := order[start : start+span]
			pick := rng.Perm(len(window))[:jobSize]
			nodes := make([]int, jobSize)
			for i, w := range pick {
				nodes[i] = window[w]
			}
			allocations = append(allocations, nodes)
		}
	}

	s := Series{Label: "running time vs avg pairwise hops (30-proc test-suite job)"}
	var xs, ys []float64
	pat, err := comm.ByName("testsuite")
	if err != nil {
		return nil, err
	}
	quota := rounds * pat.RoundLen(jobSize)
	var buf []comm.Msg
	for _, nodes := range allocations {
		// The job runs alone on an idle machine: each phase is one
		// concurrent burst, and the next starts when it has arrived.
		net := netsim.New(m, netsim.DefaultConfig())
		gen := pat.Generator(jobSize, nil)
		var sums netsim.Sums
		dur := 0.0
		for sent := 0; sent < quota; {
			msgs := gen.Burst(quota-sent, &buf)
			dur = net.Send(msgs, nodes, dur, &sums)
			sent += len(msgs)
		}
		x := m.AvgPairwiseDist(nodes)
		s.X = append(s.X, x)
		s.Y = append(s.Y, dur)
		xs = append(xs, x)
		ys = append(ys, dur)
	}
	fig := &Figure{
		ID:     "fig1",
		Title:  "Pairwise distance vs running time for the CPlant communication test suite",
		Series: []Series{s},
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("allocations: %d; Pearson r = %.3f (paper shows a clear positive trend)",
			len(allocations), stats.Pearson(xs, ys)))
	return fig, nil
}
