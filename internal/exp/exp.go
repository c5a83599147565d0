// Package exp regenerates every table and figure of the paper's evaluation.
// Each experiment builds the systems it needs, runs them, and returns a
// Table whose rows/series mirror what the paper reports; cmd/tmccsim prints
// them and EXPERIMENTS.md records paper-vs-measured values.
package exp

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Config scales an experiment run.
type Config struct {
	Seed int64
	// Quick shrinks warmup/measurement windows (used by tests); the full
	// runs are the defaults used for EXPERIMENTS.md.
	Quick bool
}

// Windows returns the (warmup, measure) access counts of every simulation
// the experiments run at this scale.
func (c Config) Windows() (int, int) {
	if c.Quick {
		return 30000, 20000
	}
	return 120000, 80000
}

// Table is one regenerated result.
type Table struct {
	ID     string
	Title  string
	Header []string // column names, first is the row label
	Rows   []RowT
	Notes  []string
}

// RowT is one labeled row of values.
type RowT struct {
	Name string
	Vals []float64
}

// Add appends a row.
func (t *Table) Add(name string, vals ...float64) {
	t.Rows = append(t.Rows, RowT{Name: name, Vals: vals})
}

// Mean appends an arithmetic-mean row over the current rows for each
// column. Rows with fewer values than the first row are skipped outright:
// averaging a ragged row's missing columns as zero while still counting
// the row in the divisor would silently deflate the mean.
func (t *Table) Mean(label string) {
	if len(t.Rows) == 0 {
		return
	}
	n := len(t.Rows[0].Vals)
	sums := make([]float64, n)
	used := 0
	for _, r := range t.Rows {
		if len(r.Vals) < n {
			continue
		}
		used++
		for i, v := range r.Vals[:n] {
			sums[i] += v
		}
	}
	if used == 0 {
		return
	}
	for i := range sums {
		sums[i] /= float64(used)
	}
	t.Add(label, sums...)
}

// GeoMean appends a geometric-mean row. Like Mean, rows shorter than the
// first row are skipped rather than silently averaged as if complete;
// non-positive values within a counted row are excluded from the product
// (they would zero or flip it) but the row still counts.
func (t *Table) GeoMean(label string) {
	if len(t.Rows) == 0 {
		return
	}
	n := len(t.Rows[0].Vals)
	prods := make([]float64, n)
	for i := range prods {
		prods[i] = 1
	}
	used := 0
	for _, r := range t.Rows {
		if len(r.Vals) < n {
			continue
		}
		used++
		for i, v := range r.Vals[:n] {
			if v > 0 {
				prods[i] *= v
			}
		}
	}
	if used == 0 {
		return
	}
	row := make([]float64, n)
	for i := range prods {
		row[i] = math.Pow(prods[i], 1/float64(used))
	}
	t.Add(label, row...)
}

// String renders the table for terminals.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-16s", t.Header[0])
	for _, h := range t.Header[1:] {
		fmt.Fprintf(&b, " %12s", h)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-16s", r.Name)
		for _, v := range r.Vals {
			fmt.Fprintf(&b, " %12.4g", v)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, r := range t.Rows {
		b.WriteString("| " + r.Name)
		for _, v := range r.Vals {
			fmt.Fprintf(&b, " | %.4g", v)
		}
		b.WriteString(" |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ",") + "\n")
	for _, r := range t.Rows {
		b.WriteString(r.Name)
		for _, v := range r.Vals {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner is the registry signature of one experiment.
type Runner func(Config) (*Table, error)

var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// Get returns the experiment with the given id.
func Get(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// IDs lists registered experiments in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
