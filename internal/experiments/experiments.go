// Package experiments regenerates the paper's quantitative artefacts: the
// §3.2 best-response oscillation closed forms (E1, E2), the convergence
// guarantees of Theorem 2 and Corollary 5 (E3, E5), the potential accounting
// of Lemmas 3 and 4 (E4), the convergence-time scaling laws of Theorems 6
// and 7 (E6–E8), the smoothed-best-response sweep (E9) and the fluid-limit
// validity check backing the whole model (E10). Each experiment returns a
// report.Table whose rows are the series a figure would plot; the root-level
// benchmark harness has one bench per experiment.
package experiments

import (
	"context"
	"errors"
	"fmt"

	"wardrop/internal/dynamics"
	"wardrop/internal/engine"
	"wardrop/internal/flow"
	"wardrop/internal/policy"
	"wardrop/internal/solver"
)

// ErrExperiment wraps failures inside an experiment run.
var ErrExperiment = errors.New("experiments: run failed")

func wrap(id string, err error) error {
	return fmt.Errorf("%w: %s: %v", ErrExperiment, id, err)
}

// replicatorFor builds the replicator policy (proportional + linear) sized to
// the instance's ℓmax.
func replicatorFor(inst *flow.Instance) (policy.Policy, error) {
	return policy.Replicator(inst.LMax())
}

// uniformLinearFor builds the uniform + linear policy sized to the
// instance's ℓmax.
func uniformLinearFor(inst *flow.Instance) (policy.Policy, error) {
	return policy.UniformLinear(inst.LMax())
}

// safeT returns the paper's safe update period for the policy on the
// instance.
func safeT(inst *flow.Instance, pol policy.Policy) (float64, error) {
	return policy.SafeUpdatePeriodFor(pol, inst.Beta(), inst.MaxPathLen())
}

// phiStar solves the instance's optimal potential with the reference solver.
func phiStar(inst *flow.Instance) (float64, error) {
	res, err := solver.SolveEquilibrium(inst, solver.Options{RelGapTol: 1e-10})
	if err != nil {
		return 0, err
	}
	return res.Potential, nil
}

// exactFluid is the engine every fluid-limit experiment dispatches through:
// the frozen-board uniformization scheme is exact, so measured artefacts
// carry no integration error.
var exactFluid = engine.Fluid{Integrator: dynamics.Uniformization}

// CountPopulation is the count-engine population wardbench runs the scaling
// experiments E6–E8 at (ids e6c, e7c, e8c): ≥ 1000× the largest population
// the per-agent engine runs anywhere in this repository (3200 in E10, 2000
// in the equivalence tests). The count engine's phase cost is O(paths)
// whatever the population, and the verdicts (rounds below the paper bound,
// growth linear in m for uniform sampling, flat in m for proportional
// sampling) must survive the sampling noise.
const CountPopulation = 4_000_000

// scalingEngine is the engine a scaling-experiment cell runs on: the exact
// fluid limit when population is 0, else the count engine with that many
// agents and the cell's seed.
func scalingEngine(population int64, seed uint64) engine.Engine {
	if population == 0 {
		return exactFluid
	}
	return engine.Count{N: population, Seed: seed}
}

// countEngineTag and countEngineNote label a scaling table run on the count
// engine; both are empty for the fluid limit.
func countEngineTag(population int64) string {
	if population == 0 {
		return ""
	}
	return " (count engine)"
}

func countEngineNote(population int64) string {
	if population == 0 {
		return ""
	}
	return fmt.Sprintf("count engine, N=%d; ", population)
}

// countUnsatisfiedRounds runs the stale dynamics from f0 on eng and returns
// the number of phases not starting at the configured approximate
// equilibrium, stopping once `streak` consecutive phases are satisfied (or at
// maxPhases). The second return reports whether the streak stop fired (i.e.
// the count is complete rather than truncated).
func countUnsatisfiedRounds(eng engine.Engine, inst *flow.Instance, pol policy.Policy, f0 flow.Vector,
	T, delta, eps float64, weak bool, streak, maxPhases int) (int, bool, error) {
	res, err := engine.Run(context.Background(), engine.Scenario{
		Engine:                   eng,
		Instance:                 inst,
		Policy:                   pol,
		UpdatePeriod:             T,
		InitialFlow:              f0,
		Horizon:                  float64(maxPhases) * T,
		Delta:                    delta,
		Eps:                      eps,
		Weak:                     weak,
		StopAfterSatisfiedStreak: streak,
	})
	if err != nil {
		return 0, false, err
	}
	return res.UnsatisfiedPhases, res.Stopped, nil
}

// potentialSeries runs the stale dynamics and returns the potential at each
// phase start.
func potentialSeries(inst *flow.Instance, pol policy.Policy, f0 flow.Vector, T float64, phases int) ([]float64, error) {
	var phis []float64
	_, err := engine.Run(context.Background(), engine.Scenario{
		Engine:       exactFluid,
		Instance:     inst,
		Policy:       pol,
		UpdatePeriod: T,
		InitialFlow:  f0,
		Horizon:      float64(phases) * T,
	}, engine.WithObserver(dynamics.ObserverFunc(func(info dynamics.PhaseInfo) bool {
		phis = append(phis, info.Potential)
		return false
	})))
	if err != nil {
		return nil, err
	}
	return phis, nil
}
