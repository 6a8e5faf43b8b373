package dynamics

import (
	"context"
	"fmt"
	"math"

	"wardrop/internal/flow"
)

// BestResponseConfig parameterises the best-response dynamics run.
type BestResponseConfig struct {
	// UpdatePeriod is the bulletin-board period T (> 0).
	UpdatePeriod float64
	// Horizon is the simulated time budget.
	Horizon float64
	// RecordEvery records a sample every k phases (0 disables).
	RecordEvery int
	// Observer observes phase starts; compose several with MultiObserver.
	Observer Observer
	// Delta/Eps enable (δ,ε)-equilibrium accounting as in Config.
	Delta float64
	Eps   float64
	// Weak selects the weak (δ,ε) metric (Definition 4).
	Weak bool
	// StopAfterSatisfiedStreak stops the run once this many consecutive
	// phases started at the configured approximate equilibrium (0 disables).
	StopAfterSatisfiedStreak int
	// Workspace, if non-nil, supplies the run's scratch buffers (Reset at
	// entry); nil allocates privately.
	Workspace *flow.Workspace
}

func (c *BestResponseConfig) validate() error {
	if c.UpdatePeriod <= 0 {
		return fmt.Errorf("%w: update period %g must be positive", ErrBadConfig, c.UpdatePeriod)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("%w: horizon %g must be positive", ErrBadConfig, c.Horizon)
	}
	return ValidateRunShape(ErrBadConfig, c.RecordEvery, c.Delta, c.Eps, c.StopAfterSatisfiedStreak)
}

// RunBestResponse integrates the best-response differential inclusion under
// stale information (Eq. 4): within each phase every activated agent adopts
// the board's minimum-latency path b, so the state relaxes exponentially,
// f(t̂+τ) = b + (f(t̂) − b)·e^{−τ}. This closed form is exact — no numeric
// integration error — which is what makes the §3.2 oscillation reproduction
// sharp. Ties in the board's shortest path break towards the lowest global
// path index, a selection of the inclusion's right-hand side.
//
// Cancellation is checked between phases: when ctx is done the partial
// result accumulated so far is returned together with ctx.Err().
func RunBestResponse(ctx context.Context, inst *flow.Instance, cfg BestResponseConfig, f0 flow.Vector) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := inst.Feasible(f0, 1e-9); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInfeasibleStart, err)
	}
	ws := cfg.Workspace
	ws.Reset()
	f := f0.Clone()
	ev := flow.NewEvaluator(inst, ws)
	n := inst.NumPaths()
	b := flow.Vector(ws.Floats(n))
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

		inst.BestResponseInto(pl, b)
		tau := math.Min(cfg.UpdatePeriod, cfg.Horizon-t)
		decay := math.Exp(-tau)
		for i := range f {
			f[i] = b[i] + (f[i]-b[i])*decay
		}
		t += tau
		res.Phases++
	}
	return finish(ev, res, f, t), nil
}

// TwoLinkOscillation returns the paper's §3.2 closed-form predictions for
// best response on two parallel links with latency ℓ(x) = max{0, β(x−½)} and
// board period T:
//
//	f1Start — the initial share 1/(e^{−T}+1) that makes the orbit periodic,
//	amplitude — the per-round latency deviation X = β(1−e^{−T})/(2e^{−T}+2),
//	maxPeriod — the largest T keeping X ≤ eps: ln((1+2ε/β)/(1−2ε/β)).
//
// maxPeriod is +Inf when eps ≥ β/2 (the oscillation cannot exceed eps).
func TwoLinkOscillation(beta, period, eps float64) (f1Start, amplitude, maxPeriod float64) {
	e := math.Exp(-period)
	f1Start = 1 / (e + 1)
	amplitude = beta * (1 - e) / (2*e + 2)
	if 2*eps/beta >= 1 {
		maxPeriod = math.Inf(1)
	} else {
		maxPeriod = math.Log((1 + 2*eps/beta) / (1 - 2*eps/beta))
	}
	return f1Start, amplitude, maxPeriod
}
