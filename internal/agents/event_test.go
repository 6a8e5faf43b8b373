package agents

import (
	"context"
	"math"
	"testing"

	"wardrop/internal/dynamics"
	"wardrop/internal/topo"
)

func TestEventDrivenConvergesOnPigou(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	s, err := New(inst, Config{N: 2000, Policy: pol, UpdatePeriod: 0.25, Horizon: 120, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunEventDrivenContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Final[0] < 0.95 {
		t.Errorf("final flow = %v, want mass on the x-link", res.Final)
	}
	if err := inst.Feasible(res.Final, 1e-9); err != nil {
		t.Errorf("final infeasible: %v", err)
	}
}

func TestEventDrivenDeterministic(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	run := func() []float64 {
		s, err := New(inst, Config{N: 400, Policy: pol, UpdatePeriod: 0.25, Horizon: 10, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunEventDrivenContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Final
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs: %v vs %v", a, b)
		}
	}
}

func TestEventDrivenHookAndPhases(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	calls := 0
	s, err := New(inst, Config{
		N: 100, Policy: pol, UpdatePeriod: 0.5, Horizon: 100, Seed: 1,
		Observer: dynamics.ObserverFunc(func(info dynamics.PhaseInfo) bool {
			calls++
			return info.Index >= 6
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunEventDrivenContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("observer stop ignored")
	}
	if calls != 7 { // phases 0..6
		t.Errorf("observer calls = %d, want 7", calls)
	}
}

// The two engines sample the same process law: their seed-averaged final
// flows on Pigou agree well within stochastic error.
func TestEngineEquivalenceInDistribution(t *testing.T) {
	inst := mustPigou(t)
	pol := mustReplicator(t, inst.LMax())
	const (
		n      = 1000
		seeds  = 5
		hor    = 20.0
		period = 0.25
	)
	meanF1 := func(event bool) float64 {
		sum := 0.0
		for seed := uint64(1); seed <= seeds; seed++ {
			s, err := New(inst, Config{N: n, Policy: pol, UpdatePeriod: period, Horizon: hor, Seed: seed, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			var res *dynamics.Result
			if event {
				res, err = s.RunEventDrivenContext(context.Background())
			} else {
				res, err = s.RunContext(context.Background())
			}
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Final[0]
		}
		return sum / seeds
	}
	batched, event := meanF1(false), meanF1(true)
	if d := math.Abs(batched - event); d > 0.03 {
		t.Errorf("engines disagree in distribution: batched %g vs event %g (diff %g)", batched, event, d)
	}
}

func TestEventDrivenBraessFeasibilityThroughout(t *testing.T) {
	inst, err := topo.Braess()
	if err != nil {
		t.Fatal(err)
	}
	pol := mustReplicator(t, inst.LMax())
	s, err := New(inst, Config{
		N: 500, Policy: pol, UpdatePeriod: 0.2, Horizon: 15, Seed: 9,
		Observer: dynamics.ObserverFunc(func(info dynamics.PhaseInfo) bool {
			if err := inst.Feasible(info.Flow, 1e-9); err != nil {
				t.Errorf("phase %d: %v", info.Index, err)
				return true
			}
			return false
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunEventDrivenContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}
