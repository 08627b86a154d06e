// Package core is the experiment harness: one constructor per figure and
// table in the paper's evaluation section, each returning a Figure whose
// series or table rows mirror what the paper plots, plus the options
// machinery to run the full grid of simulations behind them.
package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Series is one plotted line: Y versus X, labeled by the allocator or
// metric it describes. YErr, when non-nil, carries the standard
// deviation across replications.
type Series struct {
	Label string
	X     []float64
	Y     []float64
	YErr  []float64
}

// Table is one textual table (the paper's Figure 11 is a table).
type Table struct {
	Columns []string
	Rows    [][]string
}

// Figure is the reproduction of one paper figure: series for plots,
// tables for tabular data, and notes recording derived statistics such as
// correlation coefficients.
type Figure struct {
	ID     string
	Title  string
	Series []Series
	Tables []Table
	Notes  []string
}

// Render writes a plain-text rendition of the figure: aligned series
// values or table rows.
func (f *Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "=== %s: %s ===\n", f.ID, f.Title); err != nil {
		return err
	}
	for _, s := range f.Series {
		if _, err := fmt.Fprintf(w, "\n%s\n", s.Label); err != nil {
			return err
		}
		for i := range s.X {
			if s.YErr != nil {
				if _, err := fmt.Fprintf(w, "  x=%-12.4g y=%.6g ±%.4g\n", s.X[i], s.Y[i], s.YErr[i]); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "  x=%-12.4g y=%.6g\n", s.X[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	for _, t := range f.Tables {
		if err := renderTable(w, t); err != nil {
			return err
		}
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the figure's data in CSV form for external plotting:
// series as (series,x,y) rows, tables verbatim with their headers, and
// notes as comment-style rows.
func (f *Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(f.Series) > 0 {
		if err := cw.Write([]string{"series", "x", "y"}); err != nil {
			return err
		}
		for _, s := range f.Series {
			for i := range s.X {
				rec := []string{
					s.Label,
					strconv.FormatFloat(s.X[i], 'g', -1, 64),
					strconv.FormatFloat(s.Y[i], 'g', -1, 64),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	for _, t := range f.Tables {
		if err := cw.Write(t.Columns); err != nil {
			return err
		}
		for _, row := range t.Rows {
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	for _, n := range f.Notes {
		if err := cw.Write([]string{"# " + n}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func renderTable(w io.Writer, t Table) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		_, err := fmt.Fprintf(w, "%s\n", strings.TrimRight(b.String(), " "))
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// Options scales the experiments. The zero value reproduces the paper's
// setup at a tractable scale; Full() replays the whole trace.
type Options struct {
	// Jobs is the synthetic trace length; 0 means 1500 (scaled default).
	Jobs int
	// TimeScale contracts the trace; 0 means 0.02. See sim.Config.
	TimeScale float64
	// Seed drives the synthetic trace and all randomized components.
	Seed int64
	// Loads are the arrival contraction factors; nil means the paper's
	// {1, 0.8, 0.6, 0.4, 0.2}.
	Loads []float64
	// Parallelism caps concurrent simulations across the whole sweep —
	// grid cells and replications share one worker pool — without ever
	// changing a result bit (see sweep.go); 0 means GOMAXPROCS.
	Parallelism int
	// Replications repeats every simulation with independent derived
	// RNG streams (RepSeed; replication 0 keeps Seed itself) and
	// reports mean and standard deviation; 0 means 1 (single run, as in
	// the paper).
	Replications int
	// Scheduler overrides the scheduling policy ("fcfs", "easy" or
	// "sjf") in the extension experiments; empty means each
	// experiment's own default (fcfs, as in the paper). The paper
	// figures always run fcfs and ignore this field.
	Scheduler string
}

// check rejects a negative trace length or replication count; zero
// selects the default.
func (o Options) check() error {
	if o.Jobs < 0 {
		return fmt.Errorf("core: Jobs must be >= 0, got %d", o.Jobs)
	}
	if o.Replications < 0 {
		return fmt.Errorf("core: Replications must be >= 0, got %d", o.Replications)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Jobs == 0 {
		o.Jobs = 1500
	}
	if o.TimeScale == 0 {
		o.TimeScale = 0.02
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Loads) == 0 {
		o.Loads = []float64{1.0, 0.8, 0.6, 0.4, 0.2}
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Replications == 0 {
		o.Replications = 1
	}
	return o
}

// runGrid executes fn over keys on the shared shard pool (see sweep.go)
// and returns results keyed the same way; any error aborts the grid.
// The single-replication special case of runSweep, kept for grids whose
// cells carry no replication dimension.
func runGrid[K comparable, V any](keys []K, parallelism int, fn func(K) (V, error)) (map[K]V, error) {
	vals := make([]V, len(keys))
	err := forEachShard(len(keys), parallelism, func(i int) error {
		v, err := fn(keys[i])
		if err != nil {
			return err
		}
		vals[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := make(map[K]V, len(keys))
	for i, k := range keys {
		res[k] = vals[i]
	}
	return res, nil
}

// sortedLoadsDescending returns loads ordered 1.0 first, matching the
// paper's x axis ("Load (decreasing)").
func sortedLoadsDescending(loads []float64) []float64 {
	out := append([]float64(nil), loads...)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}
