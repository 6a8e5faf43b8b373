package dynamics

import (
	"context"
	"fmt"
	"math"

	"wardrop/internal/flow"
)

// HedgeConfig parameterises the multiplicative-weights (Hedge) baseline.
type HedgeConfig struct {
	// Eta is the learning rate of the multiplicative update.
	Eta float64
	// UpdatePeriod is the bulletin-board period T; one multiplicative update
	// executes per board refresh.
	UpdatePeriod float64
	// Horizon is the simulated time budget.
	Horizon float64
	// RecordEvery records a sample every k phases (0 disables).
	RecordEvery int
	// Observer observes phase starts; compose several with MultiObserver.
	Observer Observer
	// Workspace, if non-nil, supplies the run's scratch buffers (Reset at
	// entry); nil allocates privately.
	Workspace *flow.Workspace
}

// RunHedge simulates the no-regret multiplicative-weights baseline discussed
// in the paper's related work (Awerbuch–Kleinberg, Blum–Even-Dar–Ligett): at
// every bulletin-board refresh the whole population applies one Hedge update
//
//	f_P ← r_i · f_P·exp(−η·ℓ̂_P) / Σ_Q f_Q·exp(−η·ℓ̂_Q)
//
// against the posted (stale) latencies. Unlike the paper's Poisson-clocked
// policies this is a synchronous discrete-time dynamics; it serves as the
// online-learning comparator: small η converges (it is a time-discretised
// replicator), large η·β·T overshoots and oscillates just like best
// response.
func RunHedge(ctx context.Context, inst *flow.Instance, cfg HedgeConfig, f0 flow.Vector) (*Result, error) {
	if cfg.Eta <= 0 {
		return nil, fmt.Errorf("%w: eta %g must be positive", ErrBadConfig, cfg.Eta)
	}
	if cfg.UpdatePeriod <= 0 {
		return nil, fmt.Errorf("%w: update period %g must be positive", ErrBadConfig, cfg.UpdatePeriod)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("%w: horizon %g must be positive", ErrBadConfig, cfg.Horizon)
	}
	if err := ValidateRunShape(ErrBadConfig, cfg.RecordEvery, 0, 0, 0); err != nil {
		return nil, err
	}
	if err := inst.Feasible(f0, 1e-9); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInfeasibleStart, err)
	}
	ws := cfg.Workspace
	ws.Reset()
	f := f0.Clone()
	ev := flow.NewEvaluator(inst, ws)
	res := &Result{}
	t := 0.0
	for phase := 0; t < cfg.Horizon-1e-12; phase++ {
		if err := ctx.Err(); err != nil {
			return finish(ev, res, f, t), err
		}
		ev.Eval(f)
		pl := ev.PathLatencies()
		phi := ev.Potential()
		info := PhaseInfo{Index: phase, Time: t, Flow: f, PathLatencies: pl, Potential: phi}
		if cfg.RecordEvery > 0 && phase%cfg.RecordEvery == 0 {
			res.Trajectory = append(res.Trajectory, Sample{Time: t, Potential: phi, Flow: f.Clone()})
		}
		if cfg.Observer != nil && cfg.Observer.ObservePhase(info) {
			res.Stopped = true
			break
		}

		for i := 0; i < inst.NumCommodities(); i++ {
			lo, hi := inst.CommodityRange(i)
			// Max-shift the exponent for numeric stability.
			minLat := math.Inf(1)
			for g := lo; g < hi; g++ {
				if pl[g] < minLat {
					minLat = pl[g]
				}
			}
			sum := 0.0
			for g := lo; g < hi; g++ {
				f[g] *= math.Exp(-cfg.Eta * (pl[g] - minLat))
				sum += f[g]
			}
			if sum > 0 {
				scale := inst.Commodity(i).Demand / sum
				for g := lo; g < hi; g++ {
					f[g] *= scale
				}
			}
		}
		tau := math.Min(cfg.UpdatePeriod, cfg.Horizon-t)
		t += tau
		res.Phases++
	}
	return finish(ev, res, f, t), nil
}
