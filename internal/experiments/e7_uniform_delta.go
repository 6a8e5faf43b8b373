package experiments

import (
	"wardrop/internal/report"
	"wardrop/internal/stats"
	"wardrop/internal/topo"
)

// E7Params parameterises the Theorem 6 δ-scaling reproduction.
type E7Params struct {
	// Links is the fixed parallel-link count.
	Links int
	// Deltas are the approximation widths δ to sweep.
	Deltas []float64
	// Eps is the tolerated unsatisfied volume.
	Eps float64
	// Streak is the consecutive-satisfied stop criterion.
	Streak int
	// MaxPhases caps each run.
	MaxPhases int
	// Population selects the engine: 0 runs the exact fluid limit, N > 0
	// the count engine with N agents (seeded per cell with its 1-based row).
	Population int64
}

// DefaultE7Params returns the sweep used by the benchmark harness.
func DefaultE7Params() E7Params {
	return E7Params{
		Links:  8,
		Deltas: []float64{0.8, 0.4, 0.2, 0.1, 0.05},
		Eps:    0.1,
		Streak: 50, MaxPhases: 120_000,
	}
}

// RunE7 reproduces Theorem 6's dependence on δ: rounds grow as (ℓmax/δ)² in
// the bound, i.e. exponent −2 in δ. Rows sweep δ at fixed m; the note
// reports the fitted exponent (paper bound shape: ≥ −2, since the bound is
// an upper envelope).
func RunE7(p E7Params) (*report.Table, error) {
	tbl := &report.Table{
		Title:   "E7 Thm 6" + countEngineTag(p.Population) + ": uniform sampling — unsatisfied rounds vs delta",
		Columns: []string{"delta", "rounds", "complete", "bound_shape"},
	}
	inst, err := topo.LinearParallelLinks(p.Links)
	if err != nil {
		return nil, wrap("E7", err)
	}
	pol, err := uniformLinearFor(inst)
	if err != nil {
		return nil, wrap("E7", err)
	}
	t, err := safeT(inst, pol)
	if err != nil {
		return nil, wrap("E7", err)
	}
	f0 := inst.SinglePathFlow(p.Links - 1)
	var ds, rounds []float64
	for i, d := range p.Deltas {
		eng := scalingEngine(p.Population, uint64(i+1))
		n, complete, err := countUnsatisfiedRounds(eng, inst, pol, f0, t, d, p.Eps, false, p.Streak, p.MaxPhases)
		if err != nil {
			return nil, wrap("E7", err)
		}
		bound := float64(p.Links) / (p.Eps * t) * (inst.LMax() / d) * (inst.LMax() / d)
		tbl.AddRow(report.F(d), report.I(n), boolCell(complete), report.F(bound))
		ds = append(ds, d)
		rounds = append(rounds, float64(n))
	}
	if fit, err := stats.LogLogSlope(ds, rounds); err == nil {
		tbl.AddNote("fitted exponent of rounds vs delta = %.3f (paper bound shape: -2)", fit.Slope)
	}
	tbl.AddNote("%sm=%d eps=%g", countEngineNote(p.Population), p.Links, p.Eps)
	return tbl, nil
}
