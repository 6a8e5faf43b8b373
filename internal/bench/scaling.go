package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/solver"
	"wardrop/internal/topo"
)

// ScalingMeasurement is one size point of the kernelScaling suite: the full
// evaluation pass (edge flows, edge latencies, path latencies, potential)
// on a seeded sparse-random instance, measured two ways — the compiled
// kernel pinned to one worker and at its default parallelism — plus a
// Frank–Wolfe equilibrium solve recorded as a cross-check that the instance
// is well-posed.
type ScalingMeasurement struct {
	// Family and Edges identify the workload; ActualEdges and Paths are the
	// realised instance shape (the generator hits Edges exactly for
	// sparse-random, but the path count depends on what Yen enumerates).
	Family      string `json:"family"`
	Edges       int    `json:"edges"`
	ActualEdges int    `json:"actualEdges"`
	Paths       int    `json:"paths"`
	// Workers is the parallelism the parallel measurement ran under
	// (min(GOMAXPROCS, evaluator cap)); 1 on a single-core runner, where
	// ParallelNs degenerates to SerialNs.
	Workers int `json:"workers"`
	// SerialNs and ParallelNs are ns per full evaluation pass.
	SerialNs   float64 `json:"serialNs"`
	ParallelNs float64 `json:"parallelNs"`
	// ParSpeedup is SerialNs/ParallelNs and Efficiency is
	// ParSpeedup/Workers.
	ParSpeedup float64 `json:"parSpeedup"`
	Efficiency float64 `json:"efficiency"`
	// Equilibrium cross-check: the relative gap, Beckmann potential and
	// iteration count Frank–Wolfe reaches on this instance under a capped
	// budget. Recorded, not asserted — the point is that the large random
	// families feed the solver, not a convergence guarantee.
	SolverRelGap    float64 `json:"solverRelGap"`
	SolverPotential float64 `json:"solverPotential"`
	SolverIters     int     `json:"solverIters"`
}

// scalingWorkers mirrors the evaluator's default worker choice so the
// recorded Workers field matches what SetParallelism(0) actually used.
func scalingWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	return w
}

// ScalingSuite measures the evaluation kernel across instance sizes (edge
// counts) on the seeded sparse-random family. Each size gets a fixed seed,
// so reruns on one machine are directly comparable.
func ScalingSuite(sizes []int) ([]ScalingMeasurement, error) {
	var out []ScalingMeasurement
	for _, edges := range sizes {
		m, err := scalingPoint(edges)
		if err != nil {
			return nil, fmt.Errorf("scaling point %d: %w", edges, err)
		}
		out = append(out, m)
	}
	return out, nil
}

func scalingPoint(edges int) (ScalingMeasurement, error) {
	const (
		commodities = 8
		kPaths      = 8
		seed        = 0x5ca1e
	)
	inst, err := topo.SparseRandom(edges, 4, commodities, kPaths, seed)
	if err != nil {
		return ScalingMeasurement{}, err
	}
	nE := inst.Graph().NumEdges()
	nP := inst.NumPaths()
	m := ScalingMeasurement{
		Family:      "sparse-random",
		Edges:       edges,
		ActualEdges: nE,
		Paths:       nP,
		Workers:     scalingWorkers(),
	}

	// A mildly uneven flow so the latency evaluation is not all-zeros.
	f := inst.UniformFlow()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < inst.NumCommodities(); i++ {
		lo, hi := inst.CommodityRange(i)
		p := lo + rng.Intn(hi-lo)
		q := lo + rng.Intn(hi-lo)
		amt := f[p] / 2
		f[p] -= amt
		f[q] += amt
	}

	evS := flow.NewEvaluator(inst, nil)
	evS.SetParallelism(1)
	m.SerialNs = measure(fmt.Sprintf("scale/%d/serial", edges), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			evS.Eval(f)
			_ = evS.Potential()
		}
	}).NsPerOp

	evP := flow.NewEvaluator(inst, nil)
	evP.SetParallelism(m.Workers)
	m.ParallelNs = measure(fmt.Sprintf("scale/%d/parallel", edges), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			evP.Eval(f)
			_ = evP.Potential()
		}
	}).NsPerOp

	m.ParSpeedup = m.SerialNs / m.ParallelNs
	m.Efficiency = m.ParSpeedup / float64(m.Workers)

	res, err := solver.SolveEquilibrium(inst, solver.Options{MaxIters: 100, RelGapTol: 1e-6})
	if err != nil {
		return ScalingMeasurement{}, err
	}
	m.SolverRelGap = res.RelGap
	m.SolverPotential = res.Potential
	m.SolverIters = res.Iters
	return m, nil
}
