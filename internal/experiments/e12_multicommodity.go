package experiments

import (
	"wardrop/internal/flow"
	"wardrop/internal/report"
	"wardrop/internal/topo"
)

// E12Params parameterises the multi-commodity reproduction of Theorems 6/7.
type E12Params struct {
	// Ks are the commodity counts to sweep.
	Ks []int
	// Links is the number of shared parallel links m.
	Links int
	// Delta, Eps define the approximate equilibria.
	Delta, Eps float64
	// Streak is the consecutive-satisfied stop criterion.
	Streak int
	// MaxPhases caps each run.
	MaxPhases int
}

// DefaultE12Params returns the sweep used by the benchmark harness.
func DefaultE12Params() E12Params {
	return E12Params{
		Ks:    []int{1, 2, 4, 8},
		Links: 8,
		Delta: 0.2, Eps: 0.1,
		Streak: 50, MaxPhases: 60_000,
	}
}

// RunE12 exercises Theorems 6 and 7 in the genuinely multi-commodity model
// they are stated for: k commodities with distinct sources and staggered
// demands compete on m shared links. The (δ,ε) metrics aggregate
// δ-unsatisfied volume across commodities exactly as in the paper's
// definitions. Rows sweep k for both policies; the theorems' bounds do not
// grow with k (only with max_i |P_i| = m, ε, δ), so the measured rounds
// should stay of the same order as k grows — which is what the table
// verifies.
func RunE12(p E12Params) (*report.Table, error) {
	tbl := &report.Table{
		Title:   "E12 Thms 6+7 multi-commodity: unsatisfied rounds vs commodity count",
		Columns: []string{"k", "uniform_rounds", "uniform_complete", "replicator_rounds", "replicator_complete"},
	}
	for _, k := range p.Ks {
		inst, err := topo.MultiCommodityParallel(k, p.Links)
		if err != nil {
			return nil, wrap("E12", err)
		}
		f0 := multiSkewedStart(inst)

		uPol, err := uniformLinearFor(inst)
		if err != nil {
			return nil, wrap("E12", err)
		}
		uT, err := safeT(inst, uPol)
		if err != nil {
			return nil, wrap("E12", err)
		}
		uN, uDone, err := countUnsatisfiedRounds(exactFluid, inst, uPol, f0, uT, p.Delta, p.Eps, false, p.Streak, p.MaxPhases)
		if err != nil {
			return nil, wrap("E12", err)
		}

		rPol, err := replicatorFor(inst)
		if err != nil {
			return nil, wrap("E12", err)
		}
		rT, err := safeT(inst, rPol)
		if err != nil {
			return nil, wrap("E12", err)
		}
		rN, rDone, err := countUnsatisfiedRounds(exactFluid, inst, rPol, f0, rT, p.Delta, p.Eps, true, p.Streak, p.MaxPhases)
		if err != nil {
			return nil, wrap("E12", err)
		}
		tbl.AddRow(report.I(k), report.I(uN), boolCell(uDone), report.I(rN), boolCell(rDone))
	}
	tbl.AddNote("m=%d shared links; delta=%g eps=%g; bounds depend on max_i|P_i|, not k", p.Links, p.Delta, p.Eps)
	return tbl, nil
}

// multiSkewedStart routes 90%% of each commodity's demand on its worst
// (last) path and spreads the rest evenly, keeping every path reachable for
// proportional sampling.
func multiSkewedStart(inst *flow.Instance) flow.Vector {
	f := make(flow.Vector, inst.NumPaths())
	for i := 0; i < inst.NumCommodities(); i++ {
		lo, hi := inst.CommodityRange(i)
		d := inst.Commodity(i).Demand
		n := hi - lo
		for g := lo; g < hi; g++ {
			f[g] = 0.1 * d / float64(n)
		}
		f[hi-1] += 0.9 * d
	}
	return f
}
