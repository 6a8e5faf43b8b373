package experiments

import (
	"context"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"wardrop/internal/report"
	"wardrop/internal/sweep"
)

// The scaling experiments E6–E8 are defined once each; these tests pin that
// definition on both of its engines and against the sweep engine.

// exponentFromNote extracts the fitted exponent from a table note of the
// form "... exponent ... = <v> ...".
func exponentFromNote(t *testing.T, notes []string) float64 {
	t.Helper()
	note := findNote(notes, "exponent")
	if note == "" {
		t.Fatal("missing exponent note")
	}
	fields := strings.Fields(note)
	for i, f := range fields {
		if f == "=" && i+1 < len(fields) {
			if v, err := strconv.ParseFloat(strings.TrimSuffix(fields[i+1], ","), 64); err == nil {
				return v
			}
		}
	}
	t.Fatalf("could not parse exponent from note %q", note)
	return 0
}

// checkRows requires the table's rows to equal want exactly.
func checkRows(t *testing.T, tbl *report.Table, want [][]string) {
	t.Helper()
	if !reflect.DeepEqual(tbl.Rows, want) {
		t.Errorf("rows changed:\ngot  %q\nwant %q", tbl.Rows, want)
	}
}

// The E6 verdict — rounds below the paper bound and growing with m — must
// survive sampling noise at a population 1000× beyond anything the per-agent
// engine runs (its repo-wide maximum is 3200 agents in E10). The three
// count-engine tests run wardbench's e6c/e7c/e8c parameters and pin its
// rows, so a change to the per-cell count seeds fails here rather than
// silently moving a headline (e6c's is 161 rounds at m=32).
func TestE6CountVerdictAtScale(t *testing.T) {
	p := DefaultE6Params()
	p.Population = CountPopulation
	tbl, err := RunE6(p)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, tbl, [][]string{
		{"2", "0.333333", "24", "true", "6000"},
		{"4", "0.357143", "40", "true", "17500"},
		{"8", "0.366667", "79", "true", "41250"},
		{"16", "0.370968", "115", "true", "89125"},
		{"32", "0.373016", "161", "true", "185062"},
	})
	for _, row := range tbl.Rows {
		if row[3] != "true" {
			t.Errorf("run truncated before reaching equilibrium: %v", row)
		}
		if n, bound := parse(t, row[2]), parse(t, row[4]); n > bound {
			t.Errorf("measured rounds %g exceed the paper bound shape %g: %v", n, bound, row)
		}
	}
	if first, last := parse(t, tbl.Rows[0][2]), parse(t, tbl.Rows[len(tbl.Rows)-1][2]); last <= first {
		t.Errorf("rounds did not grow with m: %g -> %g", first, last)
	}
	if got, want := tbl.Notes[len(tbl.Notes)-1], "count engine, N=4000000; delta=0.2 eps=0.1 streak=50"; got != want {
		t.Errorf("engine note = %q, want %q", got, want)
	}
}

func TestE7CountVerdictAtScale(t *testing.T) {
	p := DefaultE7Params()
	p.Population = CountPopulation
	tbl, err := RunE7(p)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, tbl, [][]string{
		{"0.8", "21", "true", "2578.12"},
		{"0.4", "42", "true", "10312.5"},
		{"0.2", "79", "true", "41250"},
		{"0.1", "119", "true", "165000"},
		{"0.05", "198", "true", "660000"},
	})
	for _, row := range tbl.Rows {
		if n, bound := parse(t, row[1]), parse(t, row[3]); n > bound {
			t.Errorf("measured rounds %g exceed the paper bound shape %g: %v", n, bound, row)
		}
	}
	// Rounds grow as delta shrinks.
	if first, last := parse(t, tbl.Rows[0][1]), parse(t, tbl.Rows[len(tbl.Rows)-1][1]); last <= first {
		t.Errorf("rounds did not grow as delta shrank: %g -> %g", first, last)
	}
}

func TestE8CountFlatInMAtScale(t *testing.T) {
	p := DefaultE8Params()
	p.Population = CountPopulation
	tbl, err := RunE8(p)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, tbl, [][]string{
		{"2", "0.333333", "19", "true", "3000"},
		{"4", "0.357143", "33", "true", "4375"},
		{"8", "0.366667", "38", "true", "5156.25"},
		{"16", "0.370968", "40", "true", "5570.31"},
		{"32", "0.373016", "46", "true", "5783.2"},
	})
	for _, row := range tbl.Rows {
		if row[3] != "true" {
			t.Errorf("run truncated: %v", row)
		}
	}
	if exp := exponentFromNote(t, tbl.Notes); math.Abs(exp) > 0.6 {
		t.Errorf("replicator m-exponent = %g at N=%d, want ~0", exp, int64(CountPopulation))
	}
}

// The sweep engine must reproduce the single experiment definition: each
// test below runs an E6-, E7- or E8-shaped campaign (links family,
// worst/skewed start, safe period) and requires every record's round count
// and completion flag to equal the matching row of the experiment loop. The
// fluid dynamics is deterministic, so the two forms must agree exactly.

const sweepDelta, sweepEps, sweepStreak, sweepMaxPhases = 0.3, 0.15, 30, 30_000

var sweepLinks = []int{2, 4, 8, 32}

func sweepLinksAxis() []sweep.Topology {
	var out []sweep.Topology
	for _, m := range sweepLinks {
		out = append(out, sweep.Topology{Family: "links", Size: m})
	}
	return out
}

// checkSweepMatchesDefinition runs camp on the sweep engine and compares it
// with tbl, whose roundsCol and completeCol columns hold the definition's
// round count and completion flag.
func checkSweepMatchesDefinition(t *testing.T, camp *sweep.Campaign, tbl *report.Table, roundsCol, completeCol int) {
	t.Helper()
	camp.UpdatePeriods = []sweep.Period{{Safe: true}}
	camp.MaxPhases, camp.Eps, camp.Streak = sweepMaxPhases, sweepEps, sweepStreak
	res, err := sweep.Run(context.Background(), camp, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(tbl.Rows) {
		t.Fatalf("%d records for %d rows", len(res.Records), len(tbl.Rows))
	}
	for i, rec := range res.Records {
		row := tbl.Rows[i]
		if rec.Error != "" {
			t.Fatalf("task %d: %s", rec.ID, rec.Error)
		}
		if got := strconv.Itoa(rec.UnsatisfiedPhases); got != row[roundsCol] {
			t.Errorf("row %v: sweep UnsatisfiedPhases = %s", row, got)
		}
		if got := strconv.FormatBool(rec.Converged); got != row[completeCol] {
			t.Errorf("row %v: sweep Converged = %s", row, got)
		}
	}
}

func TestE6SweepMatchesLegacy(t *testing.T) {
	tbl, err := RunE6(E6Params{LinkCounts: sweepLinks, Delta: sweepDelta, Eps: sweepEps, Streak: sweepStreak, MaxPhases: sweepMaxPhases})
	if err != nil {
		t.Fatal(err)
	}
	checkSweepMatchesDefinition(t, &sweep.Campaign{
		Name: "e6-campaign", Topologies: sweepLinksAxis(), Policies: []sweep.PolicySpec{{Kind: "uniform"}},
		Start: "worst", Delta: sweepDelta,
	}, tbl, 2, 3)
}

func TestE7SweepMatchesLegacy(t *testing.T) {
	deltas := []float64{0.6, 0.3, 0.15}
	tbl, err := RunE7(E7Params{Links: 4, Deltas: deltas, Eps: sweepEps, Streak: sweepStreak, MaxPhases: sweepMaxPhases})
	if err != nil {
		t.Fatal(err)
	}
	checkSweepMatchesDefinition(t, &sweep.Campaign{
		Name: "e7-campaign", Topologies: []sweep.Topology{{Family: "links", Size: 4}}, Policies: []sweep.PolicySpec{{Kind: "uniform"}},
		Start: "worst", Deltas: deltas,
	}, tbl, 1, 2)
}

func TestE8SweepMatchesLegacy(t *testing.T) {
	tbl, err := RunE8(E8Params{LinkCounts: sweepLinks, Delta: sweepDelta, Eps: sweepEps, Streak: sweepStreak, MaxPhases: sweepMaxPhases})
	if err != nil {
		t.Fatal(err)
	}
	checkSweepMatchesDefinition(t, &sweep.Campaign{
		Name: "e8-campaign", Topologies: sweepLinksAxis(), Policies: []sweep.PolicySpec{{Kind: "replicator"}},
		Start: "skewed", Delta: sweepDelta, Weak: true,
	}, tbl, 2, 3)
}
