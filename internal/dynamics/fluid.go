package dynamics

import (
	"context"
	"fmt"
	"math"

	"wardrop/internal/flow"
)

// Run integrates the stale-information dynamics (Eq. 3) from f0 under the
// bulletin-board model: at each phase start the board is refreshed from the
// true state, migration rates are frozen against the board for the whole
// phase of length cfg.UpdatePeriod, and the linear within-phase system is
// integrated with the configured scheme.
//
// All per-phase state evaluation runs on the compiled flow.Evaluator kernel
// and every scratch buffer comes from cfg.Workspace (reset at entry), so
// steady-state phases allocate nothing and repeated runs on one workspace
// reuse the same memory.
//
// Cancellation is checked between phases: when ctx is done the partial
// result accumulated so far is returned together with ctx.Err().
func Run(ctx context.Context, inst *flow.Instance, cfg Config, f0 flow.Vector) (*Result, error) {
	if err := cfg.validate(true); err != nil {
		return nil, err
	}
	if err := inst.Feasible(f0, 1e-9); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInfeasibleStart, err)
	}
	ws := cfg.Workspace
	ws.Reset()
	f := f0.Clone()
	ev := flow.NewEvaluator(inst, ws)
	rm := newRateMatrix(inst, ws)
	n := inst.NumPaths()
	var (
		sc = newRK4Scratch(n, ws)
		uA = ws.Floats(n)
		uB = ws.Floats(n)
		uC = ws.Floats(n)
	)
	res := &Result{}
	account := NewRoundAccounting(cfg.Delta, cfg.Eps, cfg.Weak, cfg.StopAfterSatisfiedStreak)
	t := 0.0
	for phase := 0; t < cfg.Horizon-1e-12; phase++ {
		if err := ctx.Err(); err != nil {
			return finish(ev, res, f, t), err
		}
		ev.Eval(f)
		pl := ev.PathLatencies()
		phi := ev.Potential()

		info := PhaseInfo{Index: phase, Time: t, Flow: f, PathLatencies: pl, Potential: phi}
		streakStop := account.Observe(inst, &info, res)
		if cfg.RecordEvery > 0 && phase%cfg.RecordEvery == 0 {
			res.Trajectory = append(res.Trajectory, Sample{Time: t, Potential: phi, Flow: f.Clone()})
		}
		if stop := cfg.Observer != nil && cfg.Observer.ObservePhase(info); stop || streakStop {
			res.Stopped = true
			break
		}

		rm.fill(cfg.Policy, f, pl)
		tau := math.Min(cfg.UpdatePeriod, cfg.Horizon-t)
		switch cfg.Integrator {
		case Euler:
			integrateEuler(rm, f, tau, cfg.Step, uA)
		case RK4:
			integrateRK4(rm, f, tau, cfg.Step, sc)
		case Uniformization:
			integrateUniformization(rm, f, tau, uA, uB, uC)
		}
		inst.Project(f, 1e-9)
		t += tau
		res.Phases++
	}
	return finish(ev, res, f, t), nil
}

// finish fills the result's terminal fields from the current state; shared
// by normal completion and cancellation paths. The evaluator re-evaluates
// the final flow, so the reported potential matches the reference
// Instance.Potential bit-for-bit.
func finish(ev *flow.Evaluator, res *Result, f flow.Vector, t float64) *Result {
	ev.Eval(f)
	res.Final = f
	res.FinalPotential = ev.Potential()
	res.Elapsed = t
	return res
}

// RunFresh integrates the up-to-date-information dynamics (Eq. 1): migration
// rates are recomputed from the true state at every derivative evaluation.
// cfg.UpdatePeriod is ignored; cfg.Step is the reporting granularity and the
// outer step size (each outer step is one "phase" for observers and
// recording). Uniformization is rejected — the fresh system is non-linear.
// Cancellation follows the same partial-result contract as Run.
func RunFresh(ctx context.Context, inst *flow.Instance, cfg Config, f0 flow.Vector) (*Result, error) {
	if err := cfg.validate(false); err != nil {
		return nil, err
	}
	if cfg.Integrator == Uniformization {
		return nil, fmt.Errorf("%w: uniformization requires a frozen board", ErrBadConfig)
	}
	if err := inst.Feasible(f0, 1e-9); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInfeasibleStart, err)
	}
	ws := cfg.Workspace
	ws.Reset()
	f := f0.Clone()
	ev := flow.NewEvaluator(inst, ws)
	rm := newRateMatrix(inst, ws)
	n := inst.NumPaths()
	var (
		df = ws.Floats(n)
		sc = newRK4Scratch(n, ws)
	)
	// fresh recomputes rates from the supplied state before differentiating.
	// The evaluator's lazy potential means the inner stage evaluations pay
	// for flows and latencies only.
	fresh := func(state flow.Vector, out []float64) {
		ev.Eval(state)
		rm.fill(cfg.Policy, state, ev.PathLatencies())
		rm.derivative(state, out)
	}
	res := &Result{}
	account := NewRoundAccounting(cfg.Delta, cfg.Eps, cfg.Weak, cfg.StopAfterSatisfiedStreak)
	t := 0.0
	for step := 0; t < cfg.Horizon-1e-12; step++ {
		if err := ctx.Err(); err != nil {
			return finish(ev, res, f, t), err
		}
		ev.Eval(f)
		pl := ev.PathLatencies()
		phi := ev.Potential()
		info := PhaseInfo{Index: step, Time: t, Flow: f, PathLatencies: pl, Potential: phi}
		streakStop := account.Observe(inst, &info, res)
		if cfg.RecordEvery > 0 && step%cfg.RecordEvery == 0 {
			res.Trajectory = append(res.Trajectory, Sample{Time: t, Potential: phi, Flow: f.Clone()})
		}
		if stop := cfg.Observer != nil && cfg.Observer.ObservePhase(info); stop || streakStop {
			res.Stopped = true
			break
		}

		h := math.Min(cfg.Step, cfg.Horizon-t)
		switch cfg.Integrator {
		case Euler:
			fresh(f, df)
			for i := range f {
				f[i] += h * df[i]
			}
		case RK4:
			fresh(f, sc.k1)
			for i := range f {
				sc.mid[i] = f[i] + 0.5*h*sc.k1[i]
			}
			fresh(sc.mid, sc.k2)
			for i := range f {
				sc.mid[i] = f[i] + 0.5*h*sc.k2[i]
			}
			fresh(sc.mid, sc.k3)
			for i := range f {
				sc.mid[i] = f[i] + h*sc.k3[i]
			}
			fresh(sc.mid, sc.k4)
			for i := range f {
				f[i] += h / 6 * (sc.k1[i] + 2*sc.k2[i] + 2*sc.k3[i] + sc.k4[i])
			}
		}
		inst.Project(f, 1e-9)
		t += h
		res.Phases++
	}
	return finish(ev, res, f, t), nil
}
