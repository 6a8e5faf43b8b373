// Benchmark harness: one benchmark per reproduced paper artefact (see
// DESIGN.md's experiment index). Each bench regenerates the corresponding
// table through internal/experiments and reports the artefact's headline
// number as a custom metric, so `go test -bench=. -benchmem` doubles as the
// reproduction run. EXPERIMENTS.md records paper-vs-measured for each.
package wardrop_test

import (
	"context"
	"strconv"
	"testing"

	"wardrop"
	"wardrop/internal/experiments"
	"wardrop/internal/report"
)

func cell(b *testing.B, tbl *report.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

// BenchmarkE1BestResponseOscillation regenerates the §3.2 oscillation table
// (amplitude closed form vs measured across β×T).
func BenchmarkE1BestResponseOscillation(b *testing.B) {
	var tbl *report.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.RunE1(experiments.DefaultE1Params())
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for r := range tbl.Rows {
		if v := cell(b, tbl, r, 4); v > worst {
			worst = v
		}
	}
	b.ReportMetric(worst, "worst-rel-amp-err")
}

// BenchmarkE2OscillationThreshold regenerates the §3.2 max-period table.
func BenchmarkE2OscillationThreshold(b *testing.B) {
	var tbl *report.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.RunE2(experiments.DefaultE2Params())
		if err != nil {
			b.Fatal(err)
		}
	}
	ok := 0.0
	for _, row := range tbl.Rows {
		if row[4] == "true" {
			ok++
		}
	}
	b.ReportMetric(ok/float64(len(tbl.Rows)), "within-eps-fraction")
}

// BenchmarkE3FreshInfoConvergence regenerates the Theorem 2 table.
func BenchmarkE3FreshInfoConvergence(b *testing.B) {
	var tbl *report.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.RunE3(experiments.DefaultE3Params())
		if err != nil {
			b.Fatal(err)
		}
	}
	worstGap := 0.0
	for r := range tbl.Rows {
		if v := cell(b, tbl, r, 5); v > worstGap {
			worstGap = v
		}
	}
	b.ReportMetric(worstGap, "worst-phi-gap")
}

// BenchmarkE4PotentialAccounting regenerates the Lemma 3/4 table.
func BenchmarkE4PotentialAccounting(b *testing.B) {
	var tbl *report.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.RunE4(experiments.DefaultE4Params())
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for r := range tbl.Rows {
		if v := cell(b, tbl, r, 2); v > worst {
			worst = v
		}
	}
	b.ReportMetric(worst, "worst-lemma3-residual")
}

// BenchmarkE5SafeTSweep regenerates the Corollary 5 regime table.
func BenchmarkE5SafeTSweep(b *testing.B) {
	var tbl *report.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.RunE5(experiments.DefaultE5Params())
		if err != nil {
			b.Fatal(err)
		}
	}
	// Final potential at T = T_safe (row with multiplier 1).
	b.ReportMetric(cell(b, tbl, 1, 2), "phi-final-at-Tsafe")
}

// BenchmarkE6UniformScalingPaths regenerates the Theorem 6 m-scaling series.
func BenchmarkE6UniformScalingPaths(b *testing.B) {
	var tbl *report.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.RunE6(experiments.DefaultE6Params())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cell(b, tbl, len(tbl.Rows)-1, 2), "rounds-at-max-m")
}

// BenchmarkE7UniformScalingDelta regenerates the Theorem 6 δ-scaling series.
func BenchmarkE7UniformScalingDelta(b *testing.B) {
	var tbl *report.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.RunE7(experiments.DefaultE7Params())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cell(b, tbl, len(tbl.Rows)-1, 1), "rounds-at-min-delta")
}

// BenchmarkE8ProportionalScaling regenerates the Theorem 7 series.
func BenchmarkE8ProportionalScaling(b *testing.B) {
	var tbl *report.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.RunE8(experiments.DefaultE8Params())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cell(b, tbl, len(tbl.Rows)-1, 2), "rounds-at-max-m")
}

// BenchmarkE9LogitSweep regenerates the smoothed-best-response table.
func BenchmarkE9LogitSweep(b *testing.B) {
	var tbl *report.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.RunE9(experiments.DefaultE9Params())
		if err != nil {
			b.Fatal(err)
		}
	}
	// Oscillation score of the hard-best-response contrast row.
	b.ReportMetric(cell(b, tbl, len(tbl.Rows)-1, 4), "br-osc-score")
}

// BenchmarkE10FluidVsAgents regenerates the fluid-limit validity series.
func BenchmarkE10FluidVsAgents(b *testing.B) {
	var tbl *report.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.RunE10(experiments.DefaultE10Params())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cell(b, tbl, len(tbl.Rows)-1, 1), "sup-err-at-max-N")
}

// BenchmarkAblationStepSize regenerates the integrator step-size ablation.
func BenchmarkAblationStepSize(b *testing.B) {
	var tbl *report.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.RunAblationStep(experiments.DefaultAblationStepParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cell(b, tbl, 0, 2), "rk4-err-at-coarsest-step")
}

// BenchmarkAblationPhaseExact compares the three within-phase integration
// schemes' wall time on the same workload (design choice: uniformization is
// both exact and cheap because the frozen-board phase is linear).
func BenchmarkAblationPhaseExact(b *testing.B) {
	inst, err := wardrop.LinearParallelLinks(16)
	if err != nil {
		b.Fatal(err)
	}
	pol, err := wardrop.Replicator(inst.LMax())
	if err != nil {
		b.Fatal(err)
	}
	T, err := wardrop.SafeUpdatePeriodFor(pol, inst)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		integ wardrop.Integrator
	}{
		{"euler", wardrop.Euler},
		{"rk4", wardrop.RK4},
		{"uniformization", wardrop.Uniformization},
	} {
		b.Run(tc.name, func(b *testing.B) {
			f0 := inst.SinglePathFlow(0)
			for i := 0; i < b.N; i++ {
				if _, err := wardrop.Run(context.Background(), wardrop.Scenario{
					Engine:   wardrop.FluidEngine{Integrator: tc.integ},
					Instance: inst, Policy: pol, UpdatePeriod: T, Horizon: 100 * T,
					InitialFlow: f0,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAgentWorkers measures the agent simulator's shard
// parallelism (design choice: phase-frozen boards make shards embarrassingly
// parallel).
func BenchmarkAblationAgentWorkers(b *testing.B) {
	inst, err := wardrop.Braess()
	if err != nil {
		b.Fatal(err)
	}
	pol, err := wardrop.Replicator(inst.LMax())
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wardrop.Run(context.Background(), wardrop.Scenario{
					Engine:   wardrop.AgentsEngine{N: 20000, Seed: 1, Workers: workers},
					Instance: inst, Policy: pol, UpdatePeriod: 0.25, Horizon: 5,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolverEquilibrium measures the reference solver on a mid-size
// instance.
func BenchmarkSolverEquilibrium(b *testing.B) {
	inst, err := wardrop.LayeredRandom(3, 4, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wardrop.SolveEquilibrium(inst, wardrop.SolverOptions{RelGapTol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFluidPhase measures the per-phase cost of the stale dynamics on a
// larger strategy space.
func BenchmarkFluidPhase(b *testing.B) {
	inst, err := wardrop.LinearParallelLinks(64)
	if err != nil {
		b.Fatal(err)
	}
	pol, err := wardrop.Replicator(inst.LMax())
	if err != nil {
		b.Fatal(err)
	}
	T, err := wardrop.SafeUpdatePeriodFor(pol, inst)
	if err != nil {
		b.Fatal(err)
	}
	f0 := inst.SinglePathFlow(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wardrop.Run(context.Background(), wardrop.Scenario{
			Engine:   wardrop.FluidEngine{Integrator: wardrop.Uniformization},
			Instance: inst, Policy: pol, UpdatePeriod: T, Horizon: 10 * T,
			InitialFlow: f0,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11HedgeSweep regenerates the no-regret baseline table.
func BenchmarkE11HedgeSweep(b *testing.B) {
	var tbl *report.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.RunE11(experiments.DefaultE11Params())
		if err != nil {
			b.Fatal(err)
		}
	}
	// Flow deviation of the smallest learning rate (should be ~0).
	b.ReportMetric(cell(b, tbl, 0, 3), "flow-dev-at-min-eta")
}

// BenchmarkE12MultiCommodity regenerates the multi-commodity rounds table.
func BenchmarkE12MultiCommodity(b *testing.B) {
	var tbl *report.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.RunE12(experiments.DefaultE12Params())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cell(b, tbl, len(tbl.Rows)-1, 3), "replicator-rounds-at-max-k")
}
