package wardrop_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"wardrop"
)

// The golden tests below pin the unified Run API on Pigou, Braess and
// TwoLinkKink to literal values captured from the seed implementation's
// Simulate, SimulateFresh, SimulateBestResponse and NewAgentSim entry points
// (since deleted): Final, FinalPotential, Phases, UnsatisfiedPhases and the
// recorded trajectory length must reproduce them exactly, so every engine
// behind Run stays byte-identical to the pre-redesign numbers.

type goldenCase struct {
	// final is each Final component formatted %.17g (float64 round-trip).
	final []string
	// phi is FinalPotential formatted %.17g.
	phi string
	// phases/unsat/traj pin Phases, UnsatisfiedPhases and len(Trajectory).
	phases, unsat, traj int
}

// Captured from the seed implementation's entry points before the
// Run/Scenario/Engine redesign.
var goldens = map[string]goldenCase{
	"pigou/stale-uniformization": {
		final:  []string{"0.81877401153425577", "0.18122598846574431"},
		phi:    "0.51642142944769309",
		phases: 50, unsat: 50, traj: 25,
	},
	"pigou/stale-rk4": {
		final:  []string{"0.7527627840613107", "0.24723721593868936"},
		phi:    "0.53056312047255716",
		phases: 16, unsat: 0, traj: 0,
	},
	"pigou/fresh": {
		final:  []string{"0.66666666666616115", "0.3333333333338388"},
		phi:    "0.555555555555724",
		phases: 128, unsat: 0, traj: 0,
	},
	"pigou/bestresponse": {
		final:  []string{"0.97510646581606797", "0.024893534183931972"},
		phi:    "0.50030984402208323",
		phases: 12, unsat: 7, traj: 12,
	},
	"pigou/agents": {
		final:  []string{"0.76000000000000001", "0.24000000000000002"},
		phi:    "0.52880000000000005",
		phases: 12, unsat: 0, traj: 4,
	},
	"braess/stale-uniformization": {
		final:  []string{"0.24656331778962065", "0.50687336442075881", "0.24656331778962065"},
		phi:    "1.0607934696794257",
		phases: 50, unsat: 50, traj: 25,
	},
	"braess/stale-rk4": {
		final:  []string{"0.27241357023314511", "0.45517285953370978", "0.27241357023314511"},
		phi:    "1.0742091532471685",
		phases: 16, unsat: 0, traj: 0,
	},
	"braess/fresh": {
		final:  []string{"0.30000000000000066", "0.39999999999999869", "0.30000000000000066"},
		phi:    "1.0900000000000003",
		phases: 128, unsat: 0, traj: 0,
	},
	"braess/bestresponse": {
		final:  []string{"0.016595689455954646", "0.96680862108809074", "0.016595689455954646"},
		phi:    "1.0002754169085186",
		phases: 12, unsat: 5, traj: 12,
	},
	"braess/agents": {
		final:  []string{"0.26666666666666672", "0.45666666666666667", "0.27666666666666673"},
		phi:    "1.0738277777777778",
		phases: 12, unsat: 0, traj: 4,
	},
	"kink4/stale-uniformization": {
		final:  []string{"0.5", "0.5"},
		phi:    "0",
		phases: 50, unsat: 0, traj: 25,
	},
	"kink4/stale-rk4": {
		final:  []string{"0.5", "0.5"},
		phi:    "0",
		phases: 16, unsat: 0, traj: 0,
	},
	"kink4/fresh": {
		final:  []string{"0.5", "0.5"},
		phi:    "0",
		phases: 128, unsat: 0, traj: 0,
	},
	"kink4/bestresponse": {
		final:  []string{"0.44091908481467762", "0.55908091518532244"},
		phi:    "0.0069811090782705264",
		phases: 12, unsat: 10, traj: 12,
	},
	"kink4/agents": {
		final:  []string{"0.5", "0.5"},
		phi:    "0",
		phases: 12, unsat: 0, traj: 4,
	},
}

func goldenTopologies(t *testing.T) map[string]*wardrop.Instance {
	t.Helper()
	out := make(map[string]*wardrop.Instance, 3)
	for name, mk := range map[string]func() (*wardrop.Instance, error){
		"pigou":  wardrop.Pigou,
		"braess": wardrop.Braess,
		"kink4":  func() (*wardrop.Instance, error) { return wardrop.TwoLinkKink(4) },
	} {
		inst, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = inst
	}
	return out
}

// runGolden runs the scenario through Run and requires the result to match
// the pinned seed values for key.
func runGolden(t *testing.T, key string, sc wardrop.Scenario) {
	t.Helper()
	res, err := wardrop.Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	want, ok := goldens[key]
	if !ok {
		t.Fatalf("%s: no golden case", key)
	}
	if len(res.Final) != len(want.final) {
		t.Fatalf("%s: Final has %d components, want %d", key, len(res.Final), len(want.final))
	}
	for i, w := range want.final {
		if got := fmt.Sprintf("%.17g", res.Final[i]); got != w {
			t.Errorf("%s: Final[%d] = %s, want %s", key, i, got, w)
		}
	}
	if got := fmt.Sprintf("%.17g", res.FinalPotential); got != want.phi {
		t.Errorf("%s: FinalPotential = %s, want %s", key, got, want.phi)
	}
	if res.Phases != want.phases {
		t.Errorf("%s: Phases = %d, want %d", key, res.Phases, want.phases)
	}
	if res.UnsatisfiedPhases != want.unsat {
		t.Errorf("%s: UnsatisfiedPhases = %d, want %d", key, res.UnsatisfiedPhases, want.unsat)
	}
	if len(res.Trajectory) != want.traj {
		t.Errorf("%s: len(Trajectory) = %d, want %d", key, len(res.Trajectory), want.traj)
	}
}

// The test names record the entry point each literal was captured from.

func TestGoldenRunMatchesSimulate(t *testing.T) {
	for name, inst := range goldenTopologies(t) {
		pol, err := wardrop.Replicator(inst.LMax())
		if err != nil {
			t.Fatal(err)
		}
		runGolden(t, name+"/stale-uniformization", wardrop.Scenario{
			Engine:       wardrop.FluidEngine{Integrator: wardrop.Uniformization},
			Instance:     inst,
			Policy:       pol,
			UpdatePeriod: 0.1,
			Horizon:      5,
			RecordEvery:  2,
			Delta:        0.1,
			Eps:          0.05,
		})

		ul, err := wardrop.UniformLinear(inst.LMax())
		if err != nil {
			t.Fatal(err)
		}
		runGolden(t, name+"/stale-rk4", wardrop.Scenario{
			Engine:       wardrop.FluidEngine{Integrator: wardrop.RK4, Step: 1.0 / 32},
			Instance:     inst,
			Policy:       ul,
			UpdatePeriod: 0.25,
			Horizon:      4,
		})
	}
}

func TestGoldenRunMatchesSimulateFresh(t *testing.T) {
	for name, inst := range goldenTopologies(t) {
		ul, err := wardrop.UniformLinear(inst.LMax())
		if err != nil {
			t.Fatal(err)
		}
		runGolden(t, name+"/fresh", wardrop.Scenario{
			Engine:   wardrop.FluidEngine{Fresh: true, Step: 1.0 / 64},
			Instance: inst,
			Policy:   ul,
			Horizon:  2,
		})
	}
}

func TestGoldenRunMatchesSimulateBestResponse(t *testing.T) {
	for name, inst := range goldenTopologies(t) {
		runGolden(t, name+"/bestresponse", wardrop.Scenario{
			Engine:       wardrop.BestResponseEngine{},
			Instance:     inst,
			UpdatePeriod: 0.25,
			Horizon:      3,
			RecordEvery:  1,
			Delta:        0.1,
			Eps:          0.05,
		})
	}
}

func TestGoldenRunMatchesAgentSim(t *testing.T) {
	for name, inst := range goldenTopologies(t) {
		pol, err := wardrop.Replicator(inst.LMax())
		if err != nil {
			t.Fatal(err)
		}
		runGolden(t, name+"/agents", wardrop.Scenario{
			Engine:       wardrop.AgentsEngine{N: 300, Seed: 42, Workers: 2},
			Instance:     inst,
			Policy:       pol,
			UpdatePeriod: 0.25,
			Horizon:      3,
			RecordEvery:  3,
		})
	}
}

// TestObserverComposition fans one run out to a trajectory recorder, a
// counting observer and an equilibrium stopper and checks they all see the
// same phases: the recorder reproduces the engine's own trajectory, the
// counter sees every phase, and the stopper ends the run.
func TestObserverComposition(t *testing.T) {
	inst, err := wardrop.Pigou()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := wardrop.Replicator(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	rec := &wardrop.TrajectoryRecorder{Every: 1}
	stopper := wardrop.NewEquilibriumStopper(inst, 0.5, 0.25, false, 3)
	phases := 0
	counter := wardrop.ObserverFunc(func(wardrop.PhaseInfo) bool {
		phases++
		return false
	})
	res, err := wardrop.Run(context.Background(), wardrop.Scenario{
		Instance:     inst,
		Policy:       pol,
		UpdatePeriod: 0.1,
		Horizon:      1000,
		RecordEvery:  1,
	}, wardrop.WithObserver(wardrop.Observers(rec, counter, stopper)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("equilibrium stopper never fired")
	}
	if phases != res.Phases+1 {
		// The stopping phase is observed but not integrated.
		t.Errorf("counter saw %d phases, want %d", phases, res.Phases+1)
	}
	if !reflect.DeepEqual(rec.Samples, res.Trajectory) {
		t.Errorf("recorder trajectory differs from engine trajectory: %d vs %d samples",
			len(rec.Samples), len(res.Trajectory))
	}
	if res.Phases >= 1000/0.1 {
		t.Error("run was not stopped early")
	}
}

// TestMidRunCancellationDeterminism cancels the context from an observer at
// a fixed phase and checks (a) the partial result is exactly the prefix a
// shorter-horizon run would produce, and (b) repeating the cancelled run
// reproduces it bit for bit — for both the fluid and the agent engine.
func TestMidRunCancellationDeterminism(t *testing.T) {
	inst, err := wardrop.Braess()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := wardrop.Replicator(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	const (
		T         = 0.1
		cutPhases = 5
	)
	engines := map[string]wardrop.Engine{
		"fluid":  wardrop.FluidEngine{Integrator: wardrop.Uniformization},
		"agents": wardrop.AgentsEngine{N: 200, Seed: 11, Workers: 1},
	}
	for name, eng := range engines {
		cancelled := func() *wardrop.Result {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			res, err := wardrop.Run(ctx, wardrop.Scenario{
				Engine: eng, Instance: inst, Policy: pol,
				UpdatePeriod: T, Horizon: 100,
			}, wardrop.WithObserver(wardrop.ObserverFunc(func(info wardrop.PhaseInfo) bool {
				if info.Index == cutPhases-1 {
					cancel()
				}
				return false
			})))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", name, err)
			}
			return res
		}
		a, b := cancelled(), cancelled()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: cancelled runs are not deterministic", name)
		}
		if a.Phases != cutPhases {
			t.Fatalf("%s: Phases = %d, want %d", name, a.Phases, cutPhases)
		}
		truncated, err := wardrop.Run(context.Background(), wardrop.Scenario{
			Engine: eng, Instance: inst, Policy: pol,
			UpdatePeriod: T, Horizon: cutPhases * T,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Final, truncated.Final) {
			t.Errorf("%s: partial Final %v differs from truncated-horizon Final %v",
				name, a.Final, truncated.Final)
		}
	}
}

// TestConfigValidationHardening pins the rejection of the previously
// silently-accepted shapes on every engine behind Run: negative
// RecordEvery, negative Eps with accounting enabled, negative satisfied
// streak.
func TestConfigValidationHardening(t *testing.T) {
	inst, err := wardrop.Pigou()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := wardrop.Replicator(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	bads := []wardrop.Scenario{
		{Instance: inst, Policy: pol, UpdatePeriod: 1, Horizon: 1, RecordEvery: -1},
		{Instance: inst, Policy: pol, UpdatePeriod: 1, Horizon: 1, Delta: 0.1, Eps: -0.5},
		{Instance: inst, Policy: pol, UpdatePeriod: 1, Horizon: 1, StopAfterSatisfiedStreak: -2},
	}
	engines := []wardrop.Engine{
		wardrop.FluidEngine{},
		wardrop.FluidEngine{Fresh: true},
		wardrop.BestResponseEngine{},
		wardrop.AgentsEngine{N: 10},
	}
	for _, eng := range engines {
		for _, sc := range bads {
			sc.Engine = eng
			if _, err := wardrop.Run(context.Background(), sc); err == nil {
				t.Errorf("%s accepted bad scenario %+v", eng.Name(), sc)
			}
		}
	}
}
