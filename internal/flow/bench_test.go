package flow_test

// Reference-vs-kernel benchmarks: the naive oracle evaluator (defined in
// export_test.go) against the compiled Evaluator, for a full state
// evaluation and for a sparse two-path move.

import (
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/topo"
)

// evalReference performs one naive full state evaluation (edge flows, edge
// latencies, path latencies, potential) into the provided scratch.
func evalReference(inst *flow.Instance, f flow.Vector, fe, le, pl []float64) float64 {
	inst.EdgeFlows(f, fe)
	inst.EdgeLatencies(fe, le)
	inst.PathLatenciesFromEdges(le, pl)
	return inst.PotentialFromEdges(fe)
}

// benchDeltaVsReference runs the reference and kernel sub-benchmarks of a
// sparse move: each iteration shifts flow between paths p and q (back and
// forth), then the reference re-evaluates in full while the kernel side
// updates incrementally through ApplyDelta.
func benchDeltaVsReference(b *testing.B, inst *flow.Instance, p, q int) {
	f := inst.UniformFlow()
	b.Run("reference", func(b *testing.B) {
		fe := make([]float64, inst.Graph().NumEdges())
		le := make([]float64, inst.Graph().NumEdges())
		pl := make([]float64, inst.NumPaths())
		amt := f[p] / 2
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f[p] -= amt
			f[q] += amt
			_ = evalReference(inst, f, fe, le, pl)
			amt = -amt
		}
	})
	b.Run("kernel", func(b *testing.B) {
		ev := flow.NewEvaluator(inst, nil)
		ev.Eval(f)
		_ = ev.Potential()
		amt := f[p] / 2
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.ApplyDelta(f, p, q, amt)
			_ = ev.Potential()
			amt = -amt
		}
	})
}

// BenchmarkEvalGrid isolates the full state evaluation on a 6×6 grid (252
// lattice paths): naive reference vs CSR + batch kernels.
func BenchmarkEvalGrid(b *testing.B) {
	inst, err := topo.Grid(6)
	if err != nil {
		b.Fatal(err)
	}
	f := inst.UniformFlow()
	b.Run("reference", func(b *testing.B) {
		fe := make([]float64, inst.Graph().NumEdges())
		le := make([]float64, inst.Graph().NumEdges())
		pl := make([]float64, inst.NumPaths())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = evalReference(inst, f, fe, le, pl)
		}
	})
	b.Run("kernel", func(b *testing.B) {
		ev := flow.NewEvaluator(inst, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.Eval(f)
			_ = ev.Potential()
		}
	})
}

// BenchmarkDeltaGrid isolates a sparse two-path flow move on the 6×6 grid:
// reference full recomputation vs the evaluator's incremental update.
func BenchmarkDeltaGrid(b *testing.B) {
	inst, err := topo.Grid(6)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := inst.CommodityRange(0)
	benchDeltaVsReference(b, inst, lo, hi-1)
}

// BenchmarkDeltaLinks isolates a sparse two-path move on 256 parallel
// links — the disjoint-path regime agent phases live in, where the
// incremental update touches 2 of 256 edges.
func BenchmarkDeltaLinks(b *testing.B) {
	links, err := topo.LinearParallelLinks(256)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := links.CommodityRange(0)
	benchDeltaVsReference(b, links, lo, hi-1)
}
