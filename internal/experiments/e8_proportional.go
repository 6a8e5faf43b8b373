package experiments

import (
	"wardrop/internal/flow"
	"wardrop/internal/report"
	"wardrop/internal/stats"
	"wardrop/internal/topo"
)

// E8Params parameterises the Theorem 7 reproduction.
type E8Params struct {
	// LinkCounts are the parallel-link counts to sweep.
	LinkCounts []int
	// Delta, Eps define the weak (δ,ε)-equilibrium.
	Delta, Eps float64
	// Streak is the consecutive-satisfied stop criterion.
	Streak int
	// MaxPhases caps each run.
	MaxPhases int
	// Population selects the engine: 0 runs the exact fluid limit, N > 0
	// the count engine with N agents (seeded per cell with m).
	Population int64
}

// DefaultE8Params returns the sweep used by the benchmark harness.
func DefaultE8Params() E8Params {
	return E8Params{
		LinkCounts: []int{2, 4, 8, 16, 32},
		Delta:      0.2, Eps: 0.1,
		Streak: 50, MaxPhases: 60_000,
	}
}

// RunE8 reproduces Theorem 7: for proportional sampling (the replicator) the
// number of phases not starting at a weak (δ,ε)-equilibrium is
// O(1/(εT)·(ℓmax/δ)²) — independent of the number of paths. Rows sweep m;
// the headline comparison against E6 is the fitted exponent ≈ 0 where
// uniform sampling's is ≈ 1 (with identical start states and thresholds).
//
// To keep the proportional dynamics non-degenerate the adversarial start
// routes 90% of demand on the worst link and spreads the rest evenly
// (proportional sampling cannot leave a path with exactly zero flow).
func RunE8(p E8Params) (*report.Table, error) {
	tbl := &report.Table{
		Title:   "E8 Thm 7" + countEngineTag(p.Population) + ": proportional sampling — weak unsatisfied rounds vs path count",
		Columns: []string{"m", "T", "rounds", "complete", "bound_shape"},
	}
	var ms, rounds []float64
	for _, m := range p.LinkCounts {
		inst, err := topo.LinearParallelLinks(m)
		if err != nil {
			return nil, wrap("E8", err)
		}
		pol, err := replicatorFor(inst)
		if err != nil {
			return nil, wrap("E8", err)
		}
		t, err := safeT(inst, pol)
		if err != nil {
			return nil, wrap("E8", err)
		}
		f0 := skewedStart(inst.NumPaths(), m-1)
		eng := scalingEngine(p.Population, uint64(m))
		n, complete, err := countUnsatisfiedRounds(eng, inst, pol, f0, t, p.Delta, p.Eps, true, p.Streak, p.MaxPhases)
		if err != nil {
			return nil, wrap("E8", err)
		}
		bound := 1 / (p.Eps * t) * (inst.LMax() / p.Delta) * (inst.LMax() / p.Delta)
		tbl.AddRow(report.I(m), report.F(t), report.I(n), boolCell(complete), report.F(bound))
		ms = append(ms, float64(m))
		rounds = append(rounds, float64(n))
	}
	if fit, err := stats.LogLogSlope(ms, rounds); err == nil {
		tbl.AddNote("fitted exponent of rounds vs m = %.3f (paper bound shape: 0, independent of |P|)", fit.Slope)
	}
	tbl.AddNote("%sdelta=%g eps=%g (weak metric, Definition 4)", countEngineNote(p.Population), p.Delta, p.Eps)
	return tbl, nil
}

// skewedStart puts 90% of the unit demand on path `heavy` and spreads the
// remaining 10% evenly over all n paths.
func skewedStart(n, heavy int) flow.Vector {
	f := make(flow.Vector, n)
	rest := 0.1 / float64(n)
	for i := range f {
		f[i] = rest
	}
	f[heavy] += 0.9
	return f
}
