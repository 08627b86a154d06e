// Command experiments regenerates the paper's figures and tables.
//
//	experiments                 # all figures at the scaled default
//	experiments -fig 7          # one figure
//	experiments -full           # the full 6087-job trace (slow)
//	experiments -jobs 3000      # custom trace length
//
// Output is a plain-text rendition of each figure's series or table, with
// derived statistics (Pearson correlations, gap lists) as notes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"meshalloc/internal/core"
	"meshalloc/internal/plot"
	"meshalloc/internal/sched"
)

func main() {
	var (
		figID     = flag.String("fig", "", "figure to regenerate (1, 6, 7, 8, 9, 10, 11, or an ext-* id); empty = all paper figures")
		jobs      = flag.Int("jobs", 0, "synthetic trace length (0 = scaled default)")
		scale     = flag.Float64("timescale", 0, "trace time contraction (0 = default 0.02)")
		seed      = flag.Int64("seed", 1, "random seed")
		full      = flag.Bool("full", false, "replay the full 6087-job trace (slow)")
		parallel  = flag.Int("parallel", 0, "max concurrent simulations; grid cells and replications share one worker pool and output is identical at any value (0 = GOMAXPROCS)")
		reps      = flag.Int("reps", 1, "replications per configuration on independent derived RNG streams (mean ± sd across seeds)")
		ext       = flag.Bool("ext", false, "also run the extension experiments (ext-contiguous, ext-scheduler, ext-routing, ext-mixed, ext-cube, ext-cube3d, ext-steady, ext-faults)")
		schedName = flag.String("sched", "", "scheduling policy for extension runs (fcfs, easy or sjf; empty = each experiment's default)")
		csvDir    = flag.String("csv", "", "also write each figure as <dir>/<id>.csv")
		doPlot    = flag.Bool("plot", false, "render ASCII charts for figures with series data")
		check     = flag.Bool("check", false, "run the reproduction scorecard instead of figures")
	)
	flag.Parse()

	// Reject typo'd -fig and -sched values up front with the list of
	// valid names: a silently defaulted or late-failing value masks the
	// typo in sweep scripts.
	if *figID != "" && !validFigID(*figID) {
		fmt.Fprintf(os.Stderr, "experiments: unknown figure %q\nvalid -fig values: %s (or figN), %s\n",
			*figID, strings.Join(core.AllFigureIDs(), ", "), strings.Join(core.AllExtensionIDs(), ", "))
		os.Exit(1)
	}
	if *schedName != "" {
		if _, err := sched.ByName(*schedName); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v (valid -sched values: fcfs, easy, sjf)\n", err)
			os.Exit(1)
		}
	}
	if *jobs < 0 || *reps < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -jobs and -reps must be >= 0 (got %d and %d)\n", *jobs, *reps)
		os.Exit(1)
	}

	opt := core.Options{Jobs: *jobs, TimeScale: *scale, Seed: *seed, Parallelism: *parallel, Replications: *reps, Scheduler: *schedName}
	if *full {
		opt.Jobs = 6087
	}

	if *check {
		results, err := core.Check(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Print(core.RenderChecks(results))
		for _, r := range results {
			if !r.Pass {
				os.Exit(1)
			}
		}
		return
	}

	ids := core.AllFigureIDs()
	if *ext {
		ids = append(ids, core.AllExtensionIDs()...)
	}
	if *figID != "" {
		ids = []string{*figID}
	}
	for _, id := range ids {
		start := time.Now()
		fig, err := runExperiment(id, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: figure %s: %v\n", id, err)
			os.Exit(1)
		}
		if err := fig.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, fig); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
		}
		if *doPlot {
			printCharts(fig)
		}
		fmt.Printf("(%s regenerated in %v)\n\n", fig.ID, time.Since(start).Round(time.Millisecond))
	}
}

// validFigID reports whether id names a paper figure ("7" or "fig7") or
// an extension experiment ("ext-*").
func validFigID(id string) bool {
	for _, f := range core.AllFigureIDs() {
		if id == f || id == "fig"+f {
			return true
		}
	}
	for _, e := range core.AllExtensionIDs() {
		if id == e {
			return true
		}
	}
	return false
}

// runExperiment dispatches paper figures and extension experiments.
func runExperiment(id string, opt core.Options) (*core.Figure, error) {
	if len(id) >= 4 && id[:4] == "ext-" {
		return core.ExtensionByID(id, opt)
	}
	return core.FigureByID(id, opt)
}

// printCharts renders a figure's series as ASCII charts, one chart per
// label-prefix group (figures 7 and 8 carry one group per pattern).
func printCharts(fig *core.Figure) {
	if len(fig.Series) == 0 {
		return
	}
	groups := map[string][]plot.Series{}
	var order []string
	for _, s := range fig.Series {
		prefix := s.Label
		if i := strings.IndexByte(prefix, ' '); i > 0 {
			prefix = prefix[:i]
		}
		if _, ok := groups[prefix]; !ok {
			order = append(order, prefix)
		}
		groups[prefix] = append(groups[prefix], plot.Series{Label: s.Label, X: s.X, Y: s.Y})
	}
	for _, prefix := range order {
		invert := len(groups[prefix]) > 0 && strings.Contains(fig.Title, "load")
		fmt.Println(plot.Render(plot.Config{
			Title:   fmt.Sprintf("%s — %s", fig.ID, prefix),
			XLabel:  "x",
			YLabel:  "y",
			InvertX: invert,
		}, groups[prefix]))
	}
}

// writeCSV saves one figure's data under dir.
func writeCSV(dir string, fig *core.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fig.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return fig.WriteCSV(f)
}
