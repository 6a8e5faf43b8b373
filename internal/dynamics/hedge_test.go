package dynamics

import (
	"context"
	"errors"
	"math"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/topo"
)

func TestHedgeValidation(t *testing.T) {
	inst := mustPigou(t)
	f0 := inst.UniformFlow()
	if _, err := RunHedge(context.Background(), inst, HedgeConfig{Eta: 0, UpdatePeriod: 1, Horizon: 1}, f0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("eta=0 error = %v", err)
	}
	if _, err := RunHedge(context.Background(), inst, HedgeConfig{Eta: 1, UpdatePeriod: 0, Horizon: 1}, f0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("T=0 error = %v", err)
	}
	if _, err := RunHedge(context.Background(), inst, HedgeConfig{Eta: 1, UpdatePeriod: 1, Horizon: 0}, f0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("horizon=0 error = %v", err)
	}
	if _, err := RunHedge(context.Background(), inst, HedgeConfig{Eta: 1, UpdatePeriod: 1, Horizon: 1}, flow.Vector{1, 1}); !errors.Is(err, ErrInfeasibleStart) {
		t.Errorf("infeasible error = %v", err)
	}
}

// Small learning rates converge to the Wardrop equilibrium (Hedge is a
// time-discretised replicator).
func TestHedgeSmallEtaConverges(t *testing.T) {
	inst := mustPigou(t)
	res, err := RunHedge(context.Background(), inst, HedgeConfig{Eta: 0.2, UpdatePeriod: 0.25, Horizon: 200}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if !inst.AtWardropEquilibrium(res.Final, 0.02) {
		t.Errorf("hedge did not converge: %v", res.Final)
	}
}

// Large η·β·T overshoots and oscillates on the kink instance — the same
// failure mode as best response.
func TestHedgeLargeEtaOscillates(t *testing.T) {
	inst, err := topo.TwoLinkKink(8)
	if err != nil {
		t.Fatal(err)
	}
	var f1s []float64
	cfg := HedgeConfig{
		Eta: 50, UpdatePeriod: 0.5, Horizon: 100,
		Observer: ObserverFunc(func(info PhaseInfo) bool {
			f1s = append(f1s, info.Flow[0])
			return false
		}),
	}
	res, err := RunHedge(context.Background(), inst, cfg, flow.Vector{0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Far from the even split at the end, with persistent flip-flopping.
	dev := math.Abs(res.Final[0] - 0.5)
	if dev < 0.05 {
		t.Errorf("large-eta hedge converged (dev %g) but should oscillate", dev)
	}
	flips := 0
	for i := 1; i < len(f1s); i++ {
		if (f1s[i] > 0.5) != (f1s[i-1] > 0.5) {
			flips++
		}
	}
	if flips < len(f1s)/4 {
		t.Errorf("only %d/%d flips — not oscillating", flips, len(f1s))
	}
}

func TestHedgeFeasibilityAndRecording(t *testing.T) {
	inst := mustBraess(t)
	cfg := HedgeConfig{
		Eta: 0.5, UpdatePeriod: 0.25, Horizon: 50, RecordEvery: 10,
		Observer: ObserverFunc(func(info PhaseInfo) bool {
			if err := inst.Feasible(info.Flow, 1e-9); err != nil {
				t.Errorf("phase %d: %v", info.Index, err)
				return true
			}
			return false
		}),
	}
	res, err := RunHedge(context.Background(), inst, cfg, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != 20 {
		t.Errorf("trajectory = %d samples, want 20", len(res.Trajectory))
	}
	if err := inst.Feasible(res.Final, 1e-9); err != nil {
		t.Errorf("final infeasible: %v", err)
	}
}

func TestHedgeHookStops(t *testing.T) {
	inst := mustPigou(t)
	res, err := RunHedge(context.Background(), inst, HedgeConfig{
		Eta: 0.5, UpdatePeriod: 1, Horizon: 100,
		Observer: ObserverFunc(func(info PhaseInfo) bool { return info.Index >= 3 }),
	}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.Phases != 3 {
		t.Errorf("stopped=%v phases=%d", res.Stopped, res.Phases)
	}
}

// Hedge with tiny η tracks the replicator's limit point.
func TestHedgeMatchesReplicatorLimit(t *testing.T) {
	inst := mustBraess(t)
	hres, err := RunHedge(context.Background(), inst, HedgeConfig{Eta: 0.1, UpdatePeriod: 0.1, Horizon: 400}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	pol := mustReplicator(t, inst.LMax())
	rres, err := Run(context.Background(), inst, Config{Policy: pol, UpdatePeriod: 0.1, Horizon: 400, Integrator: Uniformization}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if d := hres.Final.MaxAbsDiff(rres.Final); d > 0.05 {
		t.Errorf("hedge and replicator limits differ by %g", d)
	}
}
