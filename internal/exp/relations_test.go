package exp

import (
	"errors"
	"fmt"
	"testing"

	"tmcc/internal/workload"
)

// quickRelations are metamorphic relations between the columns of a quick
// table: orderings the paper's design argument implies whatever the
// absolute values. TestQuickSuiteMatchesGolden evaluates each on the table
// its pass already computed, so they add no simulation. A relation that
// stops holding is a known deviation to record, not a bound to loosen.
var quickRelations = map[string]func(tab *Table) error{
	// Fig18: compression only adds to the L3-miss path, and TMCC's
	// embedded CTEs take most of Compresso's translation cost off it, so
	// per benchmark no-comp <= tmcc <= compresso.
	"fig18": func(tab *Table) error {
		nc, cp, tm := column(tab, "no-comp"), column(tab, "compresso"), column(tab, "tmcc")
		if nc < 0 || cp < 0 || tm < 0 {
			return fmt.Errorf("fig18: header %v lacks no-comp/compresso/tmcc", tab.Header)
		}
		var errs []error
		for _, r := range tab.Rows {
			if v := r.Vals; !(v[nc] <= v[tm] && v[tm] <= v[cp]) {
				errs = append(errs, fmt.Errorf("fig18 %s: L3-miss latency no-comp %.1f, tmcc %.1f, compresso %.1f ns; want no-comp <= tmcc <= compresso",
					r.Name, v[nc], v[tm], v[cp]))
			}
		}
		if want := len(workload.LargeBenchmarks()) + 1; len(tab.Rows) != want {
			errs = append(errs, fmt.Errorf("fig18: %d rows, want %d (every large benchmark and the average)", len(tab.Rows), want))
		}
		return errors.Join(errs...)
	},
}

// column returns the value index of the named header column, or -1.
func column(tab *Table, name string) int {
	for j, h := range tab.Header[1:] {
		if h == name {
			return j
		}
	}
	return -1
}

func TestQuickRelationsNameExperiments(t *testing.T) {
	for id := range quickRelations {
		if _, ok := Get(id); !ok {
			t.Errorf("relation for unregistered experiment %q", id)
		}
	}
}

// TestFig18RelationRejects feeds the fig18 relation tables that hold and
// that break it on one benchmark, from either side.
func TestFig18RelationRejects(t *testing.T) {
	build := func(row int, tmcc float64) *Table {
		tab := &Table{ID: "fig18", Header: []string{"benchmark", "no-comp", "compresso", "tmcc"}}
		for _, b := range workload.LargeBenchmarks() {
			tab.Add(b, 60, 90, 70)
		}
		tab.Rows[row].Vals[2] = tmcc
		tab.Mean("average")
		return tab
	}
	rel := quickRelations["fig18"]
	if err := rel(build(4, 90)); err != nil {
		t.Errorf("tmcc equal to compresso rejected: %v", err)
	}
	if err := rel(build(4, 95)); err == nil {
		t.Error("tmcc above compresso accepted")
	}
	if err := rel(build(11, 55)); err == nil {
		t.Error("tmcc below no-comp accepted")
	}
}
