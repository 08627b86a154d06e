package core

import (
	"fmt"

	"meshalloc/internal/fault"
	"meshalloc/internal/sim"
)

// faultLevel is one failure intensity of the ext-faults grid. MTBF and
// MTTR are per-node exponential means in original trace seconds; the
// zero level is the fault-free baseline every degradation figure is
// relative to.
type faultLevel struct {
	name       string
	mtbf, mttr float64
}

var faultLevels = []faultLevel{
	{name: "none"},
	{name: "sparse", mtbf: 1.5e6, mttr: 2e4},
	{name: "dense", mtbf: 3e5, mttr: 1.5e4},
}

// extFaultSpecs are the allocators of the robustness study: the two
// curve baselines, both MC forms, the random lower bound, and the
// contiguous submesh allocator — the one the masking should hurt most,
// since a single dead node vetoes every submesh covering it.
var extFaultSpecs = []string{
	"hilbert/bestfit", "scurve", "mc", "mc1x1", "random", "submesh",
}

// ExtFaults measures allocator robustness to node failures: each
// allocator runs the same workload fault-free and under two
// exponential failure/repair intensities, reporting goodput, wasted
// work, retry traffic, and the mean-response degradation relative to
// its own fault-free baseline. Every cell is an independent
// deterministic simulation, so the table is bit-identical at any
// Options.Parallelism.
func ExtFaults(o Options) (*Figure, error) {
	o = o.withDefaults()
	// Cap job sizes at half the machine: full-machine jobs under dense
	// failures wait for a moment when every node is simultaneously up,
	// which stretches makespans without adding signal.
	tr := newTrace(o, 128)
	type key struct {
		spec  string
		level string
	}
	var keys []key
	for _, spec := range extFaultSpecs {
		for _, lv := range faultLevels {
			keys = append(keys, key{spec: spec, level: lv.name})
		}
	}
	levelByName := map[string]faultLevel{}
	for _, lv := range faultLevels {
		levelByName[lv.name] = lv
	}
	results, err := runGrid(keys, o.Parallelism, func(k key) (*sim.Result, error) {
		lv := levelByName[k.level]
		cfg := sim.Config{
			MeshW: 16, MeshH: 16,
			Alloc:     k.spec,
			Pattern:   "nbody",
			Load:      0.4,
			TimeScale: o.TimeScale,
			Seed:      o.Seed,
			Scheduler: o.Scheduler,
		}
		if lv.mtbf > 0 {
			cfg.Faults = fault.Config{
				MTBF: fault.Dist{Kind: fault.DistExponential, Mean: lv.mtbf},
				MTTR: fault.Dist{Kind: fault.DistExponential, Mean: lv.mttr},
			}
			cfg.Retry = fault.Retry{
				Kind: fault.RetryBackoff, Base: 60, Cap: 3600, MaxAttempts: 4,
			}
		}
		return runAggregates(cfg, tr)
	})
	if err != nil {
		return nil, err
	}
	t := Table{Columns: []string{
		"Algorithm", "faults", "mean response (s)", "degradation",
		"goodput %", "wasted %", "down %", "kills", "retries", "gave up",
	}}
	for _, spec := range extFaultSpecs {
		base := results[key{spec, "none"}]
		for _, lv := range faultLevels {
			r := results[key{spec, lv.name}]
			deg := "—"
			if lv.mtbf > 0 && base.MeanResponse > 0 {
				deg = fmt.Sprintf("%+.1f%%",
					100*(r.MeanResponse-base.MeanResponse)/base.MeanResponse)
			}
			t.Rows = append(t.Rows, []string{
				spec, lv.name,
				fmt.Sprintf("%.0f", r.MeanResponse),
				deg,
				fmt.Sprintf("%.1f", r.GoodputPct),
				fmt.Sprintf("%.2f", r.WastedPct),
				fmt.Sprintf("%.2f", r.DownPct),
				fmt.Sprintf("%d", r.Killed),
				fmt.Sprintf("%d", r.Retried),
				fmt.Sprintf("%d", r.GivenUp),
			})
		}
	}
	return &Figure{
		ID:     "ext-faults",
		Title:  "Allocator robustness to node failures (n-body, 16x16, load 0.4, backoff retry)",
		Tables: []Table{t},
		Notes: []string{
			"sparse: per-node MTBF 1.5e6 s, MTTR 2e4 s; dense: MTBF 3e5 s, MTTR 1.5e4 s (exponential)",
			"killed jobs retry with 60 s base / 3600 s cap exponential backoff, at most 4 restarts",
			"goodput is utilization minus work thrown away by kills; degradation is vs the allocator's own fault-free run",
			"buddy and the paged forms cannot mask single nodes and are excluded",
		},
	}, nil
}
