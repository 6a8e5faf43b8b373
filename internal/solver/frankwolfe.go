// Package solver computes reference Wardrop equilibria and social optima by
// convex minimisation of the Beckmann–McGuire–Winsten potential with the
// Frank–Wolfe (conditional gradient) method: the linearised subproblem is an
// all-or-nothing assignment to each commodity's minimum-latency path, and the
// step size comes from exact bisection line search on the one-dimensional
// convex restriction.
package solver

import (
	"errors"
	"fmt"
	"math"

	"wardrop/internal/flow"
	"wardrop/internal/graph"
	"wardrop/internal/latency"
)

// Sentinel errors.
var (
	// ErrBadConfig indicates invalid solver options.
	ErrBadConfig = errors.New("solver: invalid config")
	// ErrNotConverged indicates the iteration budget was exhausted before
	// reaching the requested duality gap.
	ErrNotConverged = errors.New("solver: not converged")
)

// Options configures the solve.
type Options struct {
	// MaxIters bounds Frank–Wolfe iterations (default 10_000).
	MaxIters int
	// RelGapTol is the relative duality gap stopping threshold
	// (default 1e-9).
	RelGapTol float64
	// LineSearchTol is the bisection interval tolerance (default 1e-12).
	LineSearchTol float64
}

func (o *Options) defaults() {
	if o.MaxIters <= 0 {
		o.MaxIters = 10_000
	}
	if o.RelGapTol <= 0 {
		o.RelGapTol = 1e-9
	}
	if o.LineSearchTol <= 0 {
		o.LineSearchTol = 1e-12
	}
}

// Result reports the solve outcome.
type Result struct {
	// Flow is the computed (approximate) minimiser.
	Flow flow.Vector
	// Potential is Φ(Flow).
	Potential float64
	// RelGap is the final relative duality gap.
	RelGap float64
	// Iters is the number of iterations performed.
	Iters int
}

// SolveEquilibrium minimises Φ over feasible flows, returning an approximate
// Wardrop equilibrium (Beckmann et al.: the minimisers of Φ are exactly the
// Wardrop equilibria). It uses pairwise Frank–Wolfe steps (path
// equalisation): each iteration moves flow, per commodity, from the worst
// used path to the best path with exact bisection line search — the pairwise
// variant converges linearly where classic FW zigzags at O(1/k). The
// returned error wraps ErrNotConverged if the gap tolerance was not met; the
// Result is still the best iterate.
func SolveEquilibrium(inst *flow.Instance, opts Options) (*Result, error) {
	opts.defaults()
	f := inst.UniformFlow()
	n := inst.NumPaths()
	// The iterates are defined by fe, the edge flows updated move by move
	// below; the evaluator turns them into latencies (pl is its live view).
	// It runs serially: every pass here sits between serial line searches,
	// and on Sioux Falls (k = 8) the parallel fan-out cost more wall and
	// CPU time than it saved on two cores.
	ev := flow.NewEvaluator(inst, nil)
	ev.SetParallelism(1)
	ev.Eval(f)
	fe := append([]float64(nil), ev.EdgeFlows()...)
	pl := ev.PathLatencies()
	y := make(flow.Vector, n)
	res := &Result{}
	const usedTol = 1e-15
	for iter := 0; iter < opts.MaxIters; iter++ {
		res.Iters = iter + 1
		ev.EvalEdgeFlows(fe)

		// Duality gap of the all-or-nothing assignment y:
		// gap = Σ_P (f_P − y_P)·ℓ_P = L(f) − Σ_i r_i·ℓ^i_min ≥ Φ(f) − Φ*.
		inst.BestResponseInto(pl, y)
		gap := 0.0
		total := 0.0
		for g := 0; g < n; g++ {
			gap += (f[g] - y[g]) * pl[g]
			total += f[g] * pl[g]
		}
		if total <= 0 {
			res.RelGap = 0
		} else {
			res.RelGap = gap / total
		}
		if res.RelGap <= opts.RelGapTol {
			break
		}

		improved := false
		for i := 0; i < inst.NumCommodities(); i++ {
			lo, hi := inst.CommodityRange(i)
			// Refresh latencies for this commodity (fe mutates as we go).
			ev.EvalEdgeFlows(fe)
			best, worst := lo, -1
			for g := lo; g < hi; g++ {
				if pl[g] < pl[best] {
					best = g
				}
				if f[g] > usedTol && (worst < 0 || pl[g] > pl[worst]) {
					worst = g
				}
			}
			if worst < 0 || worst == best || pl[worst]-pl[best] <= opts.RelGapTol*1e-3 {
				continue
			}
			gamma := pairwiseLineSearch(inst, fe, inst.Path(best), inst.Path(worst), f[worst], opts.LineSearchTol)
			if gamma <= 0 {
				continue
			}
			f[best] += gamma
			f[worst] -= gamma
			for _, e := range inst.Path(best).Edges {
				fe[e] += gamma
			}
			for _, e := range inst.Path(worst).Edges {
				fe[e] -= gamma
			}
			improved = true
		}
		if !improved {
			break
		}
	}
	inst.Project(f, 1e-12)
	res.Flow = f
	ev.Eval(f)
	res.Potential = ev.Potential()
	if res.RelGap > opts.RelGapTol {
		return res, fmt.Errorf("%w: relative gap %g after %d iters", ErrNotConverged, res.RelGap, res.Iters)
	}
	return res, nil
}

// pairwiseLineSearch finds γ ∈ [0, gammaMax] minimising
// φ(γ) = Φ(f + γ(e_best − e_worst)) by bisection on the monotone derivative
// φ'(γ) = Σ_{e∈best∖worst} ℓ_e(f_e+γ) − Σ_{e∈worst∖best} ℓ_e(f_e−γ).
func pairwiseLineSearch(inst *flow.Instance, fe []float64, best, worst graph.Path, gammaMax, tol float64) float64 {
	inBest := make(map[graph.EdgeID]bool, len(best.Edges))
	for _, e := range best.Edges {
		inBest[e] = true
	}
	var up, down []graph.EdgeID // edges gaining / losing flow
	for _, e := range best.Edges {
		up = append(up, e)
	}
	for _, e := range worst.Edges {
		if inBest[e] {
			// Shared edge: net change zero; also cancel it from up.
			for k, u := range up {
				if u == e {
					up = append(up[:k], up[k+1:]...)
					break
				}
			}
			continue
		}
		down = append(down, e)
	}
	deriv := func(gamma float64) float64 {
		s := 0.0
		for _, e := range up {
			s += inst.Latency(e).Value(fe[e] + gamma)
		}
		for _, e := range down {
			s -= inst.Latency(e).Value(fe[e] - gamma)
		}
		return s
	}
	if deriv(0) >= 0 {
		return 0
	}
	if deriv(gammaMax) <= 0 {
		return gammaMax
	}
	lo, hi := 0.0, gammaMax
	for hi-lo > tol {
		mid := 0.5 * (lo + hi)
		if deriv(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// SolveSocialOptimum minimises total latency Σ_P f_P·ℓ_P(f) by running
// Frank–Wolfe on the marginal-cost transformed instance
// ℓ̃_e(x) = ℓ_e(x) + x·ℓ'_e(x) (Beckmann's correspondence between optima and
// equilibria). The returned Result's Potential is the total latency of the
// optimum under the ORIGINAL latencies.
func SolveSocialOptimum(inst *flow.Instance, opts Options) (*Result, error) {
	g := inst.Graph()
	marginal := make([]latency.Function, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		marginal[e] = latency.Marginal{F: inst.Latency(graph.EdgeID(e))}
	}
	// Derive keeps the strategy space: the optimum is solved over exactly
	// the instance's path sets (k-shortest ones included), not a fresh
	// enumeration of the graph.
	minst, err := inst.Derive(marginal, nil)
	if err != nil {
		return nil, fmt.Errorf("solver: marginal instance: %w", err)
	}
	res, err := SolveEquilibrium(minst, opts)
	if err != nil {
		return res, err
	}
	// Report total latency under the original functions.
	pl := inst.PathLatencies(res.Flow)
	res.Potential = inst.OverallAvgLatency(res.Flow, pl)
	return res, nil
}

// PriceOfAnarchy returns L(equilibrium)/L(optimum) for the instance, along
// with both total latencies.
func PriceOfAnarchy(inst *flow.Instance, opts Options) (poa, eqCost, optCost float64, err error) {
	eq, err := SolveEquilibrium(inst, opts)
	if err != nil {
		return 0, 0, 0, err
	}
	pl := inst.PathLatencies(eq.Flow)
	eqCost = inst.OverallAvgLatency(eq.Flow, pl)
	opt, err := SolveSocialOptimum(inst, opts)
	if err != nil {
		return 0, 0, 0, err
	}
	optCost = opt.Potential
	if optCost <= 0 {
		return math.Inf(1), eqCost, optCost, nil
	}
	return eqCost / optCost, eqCost, optCost, nil
}
