package core

import (
	"fmt"
	"math"
	"strings"

	"meshalloc/internal/alloc"
	"meshalloc/internal/sim"
	"meshalloc/internal/stats"
)

// CheckResult is one verdict of the reproduction scorecard.
type CheckResult struct {
	// Claim is the paper statement being tested.
	Claim string
	// Pass reports whether the measured data supports the claim.
	Pass bool
	// Detail carries the measured numbers behind the verdict.
	Detail string
}

// Check runs a scaled version of the paper's experiments and tests the
// headline claims programmatically — the executable form of
// EXPERIMENTS.md. Each claim is judged on the *shape* of the results
// (orderings and correlations), never absolute seconds.
func Check(o Options) ([]CheckResult, error) {
	if err := o.check(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	var out []CheckResult

	// Run the 16x16 grid once at the heaviest load; most claims read
	// off these results.
	tr := newTrace(o, 256)
	type key struct {
		spec    string
		pattern string
	}
	var keys []key
	for _, p := range responsePatterns {
		for _, a := range alloc.Specs() {
			keys = append(keys, key{spec: a, pattern: p})
		}
	}
	results, err := runGrid(keys, o.Parallelism, func(k key) (*sim.Result, error) {
		return runAggregates(sim.Config{
			MeshW: 16, MeshH: 16,
			Alloc:     k.spec,
			Pattern:   k.pattern,
			Load:      0.2,
			TimeScale: o.TimeScale,
			Seed:      o.Seed,
		}, tr)
	})
	if err != nil {
		return nil, err
	}
	resp := func(pattern, spec string) float64 { return results[key{spec, pattern}].MeanResponse }
	rank := func(pattern, spec string) int {
		r := 1
		for _, a := range alloc.Specs() {
			if a != spec && resp(pattern, a) < resp(pattern, spec) {
				r++
			}
		}
		return r
	}

	add := func(claim string, pass bool, detail string) {
		out = append(out, CheckResult{Claim: claim, Pass: pass, Detail: detail})
	}

	// Claim: Hilbert with Best Fit is the closest to an overall best
	// algorithm (among the best for all patterns on 16x16).
	worst := 0
	var ranks []string
	for _, p := range responsePatterns {
		r := rank(p, "hilbert/bestfit")
		if r > worst {
			worst = r
		}
		ranks = append(ranks, fmt.Sprintf("%s #%d", p, r))
	}
	add("hilbert/bestfit is among the best for all patterns on 16x16 (top 4 of 9)",
		worst <= 4, strings.Join(ranks, ", "))

	// Claim: the compact family (MC/MC1x1/Gen-Alg) is strong for
	// all-to-all: at least two of the three in the top four.
	top := 0
	for _, spec := range []string{"mc", "mc1x1", "genalg"} {
		if rank("alltoall", spec) <= 4 {
			top++
		}
	}
	add("the MC/MC1x1/Gen-Alg family dominates all-to-all",
		top >= 2, fmt.Sprintf("%d of 3 in the top four", top))

	// Claim: for n-body, the curve strategies beat the compact family;
	// Gen-Alg is near the bottom.
	curveBest := rank("nbody", "hilbert/bestfit") <= 2
	genalgBad := rank("nbody", "genalg") >= 7
	add("curve strategies win n-body (hilbert/bestfit top two)",
		curveBest, fmt.Sprintf("hilbert/bestfit #%d", rank("nbody", "hilbert/bestfit")))
	add("gen-alg trails for n-body (rank >= 7 of 9)",
		genalgBad, fmt.Sprintf("genalg #%d", rank("nbody", "genalg")))

	// Claim: plain free-list curves trail their Best Fit counterparts.
	flWorse := 0
	var flDetail []string
	for _, c := range []string{"hilbert", "hindex", "scurve"} {
		for _, p := range responsePatterns {
			if resp(p, c) >= resp(p, c+"/bestfit") {
				flWorse++
			}
		}
		flDetail = append(flDetail, c)
	}
	add("sorted free list trails Best Fit on the same curve (majority of pattern/curve pairs)",
		flWorse >= 6, fmt.Sprintf("%d of 9 pairs", flWorse))

	// Claim: the S-curve performs poorly on the square mesh.
	sWorst := 0
	for _, p := range responsePatterns {
		if rank(p, "scurve") >= 7 {
			sWorst++
		}
	}
	add("plain s-curve is in the bottom third on 16x16 for most patterns",
		sWorst >= 2, fmt.Sprintf("bottom-third in %d of 3 patterns", sWorst))

	// Claims from Figures 9/10: correlation contrast. Too few large jobs
	// fail both claims, so the scorecard always has the same length.
	const fig10Claim = "running time correlates tightly with avg message distance (fig 10)"
	const fig9Claim = "running time does not correlate with pairwise distance (fig 9)"
	recs, err := largeJobRecords(o)
	if err != nil {
		return nil, err
	}
	if len(recs) >= 8 {
		var pair, msg, y []float64
		for _, r := range recs {
			pair = append(pair, r.AvgPairwise)
			msg = append(msg, r.AvgMsgDist)
			y = append(y, r.RunTime*o.TimeScale*41000/float64(r.Quota))
		}
		r9 := stats.Pearson(pair, y)
		r10 := stats.Pearson(msg, y)
		add(fig10Claim, r10 > 0.5, fmt.Sprintf("r = %.3f over %d jobs", r10, len(recs)))
		add(fig9Claim, math.Abs(r9) < math.Abs(r10)-0.2, fmt.Sprintf("r = %.3f vs %.3f", r9, r10))
	} else {
		detail := fmt.Sprintf("too few large jobs: only %d in the band; increase Options.Jobs", len(recs))
		add(fig10Claim, false, detail)
		add(fig9Claim, false, detail)
	}

	// Claim from Figure 11: packing strategies allocate contiguously far
	// more often than plain free lists.
	fig11, err := Fig11(o)
	if err != nil {
		return nil, err
	}
	pct := map[string]float64{}
	for _, row := range fig11.Tables[0].Rows {
		var v float64
		fmt.Sscanf(row[1], "%g%%", &v)
		pct[row[0]] = v
	}
	bfBeatsFL := pct["hilbert/bestfit"] > pct["hilbert"]+10 &&
		pct["scurve/bestfit"] > pct["scurve"]+10
	add("best-fit curves allocate contiguously far more often than free lists (fig 11)",
		bfBeatsFL,
		fmt.Sprintf("hilbert/bestfit %.1f%% vs hilbert %.1f%%; scurve/bestfit %.1f%% vs scurve %.1f%%",
			pct["hilbert/bestfit"], pct["hilbert"], pct["scurve/bestfit"], pct["scurve"]))

	return out, nil
}

// RenderChecks formats a scorecard.
func RenderChecks(rs []CheckResult) string {
	var b strings.Builder
	pass := 0
	for _, r := range rs {
		mark := "FAIL"
		if r.Pass {
			mark = "PASS"
			pass++
		}
		fmt.Fprintf(&b, "[%s] %s\n       %s\n", mark, r.Claim, r.Detail)
	}
	fmt.Fprintf(&b, "%d/%d claims reproduced\n", pass, len(rs))
	return b.String()
}
