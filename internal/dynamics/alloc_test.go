package dynamics

// Steady-state allocation tests: with a Workspace supplied, the engines'
// per-phase loops must not allocate — every run-long buffer comes from the
// workspace and the compiled kernel, leaving only a constant per-run setup
// cost. The tests measure the marginal allocations of extra phases (long
// run minus short run), which isolates the loop from the setup.

import (
	"context"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/topo"
)

// marginalAllocs returns the allocation difference between a long and a
// short run of the same closure family — ~0 when the per-phase loop is
// allocation-free.
func marginalAllocs(run func(phases int)) float64 {
	short := testing.AllocsPerRun(5, func() { run(10) })
	long := testing.AllocsPerRun(5, func() { run(110) })
	return long - short
}

func steadyStateConfig(t *testing.T, inst *flow.Instance, integ Integrator, ws *flow.Workspace) Config {
	t.Helper()
	return Config{
		Policy:       mustReplicator(t, inst.LMax()),
		UpdatePeriod: 0.25,
		Integrator:   integ,
		Workspace:    ws,
	}
}

func TestRunSteadyStateAllocationFree(t *testing.T) {
	inst := mustBraess(t)
	f0 := inst.UniformFlow()
	ws := flow.NewWorkspace()
	for _, integ := range []Integrator{Euler, RK4, Uniformization} {
		t.Run(integ.String(), func(t *testing.T) {
			cfg := steadyStateConfig(t, inst, integ, ws)
			run := func(phases int) {
				cfg.Horizon = float64(phases) * cfg.UpdatePeriod
				if _, err := Run(context.Background(), inst, cfg, f0); err != nil {
					t.Fatal(err)
				}
			}
			run(1) // warm the workspace before measuring
			if extra := marginalAllocs(run); extra > 0.5 {
				t.Fatalf("fluid %s: %g allocations per 100 extra phases, want 0", integ, extra)
			}
		})
	}
}

func TestRunBestResponseSteadyStateAllocationFree(t *testing.T) {
	inst := mustBraess(t)
	f0 := inst.UniformFlow()
	ws := flow.NewWorkspace()
	cfg := BestResponseConfig{UpdatePeriod: 0.25, Workspace: ws}
	run := func(phases int) {
		cfg.Horizon = float64(phases) * cfg.UpdatePeriod
		if _, err := RunBestResponse(context.Background(), inst, cfg, f0); err != nil {
			t.Fatal(err)
		}
	}
	run(1)
	if extra := marginalAllocs(run); extra > 0.5 {
		t.Fatalf("best response: %g allocations per 100 extra phases, want 0", extra)
	}
}

func TestRunHedgeSteadyStateAllocationFree(t *testing.T) {
	inst := mustBraess(t)
	f0 := inst.UniformFlow()
	ws := flow.NewWorkspace()
	cfg := HedgeConfig{Eta: 0.5, UpdatePeriod: 0.25, Workspace: ws}
	run := func(phases int) {
		cfg.Horizon = float64(phases) * cfg.UpdatePeriod
		if _, err := RunHedge(context.Background(), inst, cfg, f0); err != nil {
			t.Fatal(err)
		}
	}
	run(1)
	if extra := marginalAllocs(run); extra > 0.5 {
		t.Fatalf("hedge: %g allocations per 100 extra phases, want 0", extra)
	}
}

// TestLayeredRandomAllocationFree repeats the fluid check on a larger
// random topology so the kernel path (not just tiny fixed instances) is
// covered.
func TestLayeredRandomSteadyStateAllocationFree(t *testing.T) {
	inst, err := topo.LayeredRandom(3, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	f0 := inst.UniformFlow()
	ws := flow.NewWorkspace()
	cfg := steadyStateConfig(t, inst, Uniformization, ws)
	run := func(phases int) {
		cfg.Horizon = float64(phases) * cfg.UpdatePeriod
		if _, err := Run(context.Background(), inst, cfg, f0); err != nil {
			t.Fatal(err)
		}
	}
	run(1)
	if extra := marginalAllocs(run); extra > 0.5 {
		t.Fatalf("fluid layered: %g allocations per 100 extra phases, want 0", extra)
	}
}

// The Accountant reads the Eq. 7/8 terms off its own Evaluator and the edge
// state kept from the previous phase, so a steady-state phase allocates
// nothing once Accounts has room for the append.
func TestAccountantObservePhaseAllocationFree(t *testing.T) {
	inst := mustBraess(t)
	acct := NewAccountant(inst)
	f := inst.UniformFlow()
	info := PhaseInfo{Flow: f, Potential: inst.Potential(f)}
	acct.ObservePhase(info)
	acct.Accounts = make([]PhaseAccount, 0, 256)
	lo, _ := inst.CommodityRange(0)
	allocs := testing.AllocsPerRun(100, func() {
		info.Index++
		f[lo] += 1e-3
		f[lo+1] -= 1e-3
		acct.ObservePhase(info)
	})
	if allocs != 0 {
		t.Fatalf("ObservePhase: %g allocations per phase, want 0", allocs)
	}
	if len(acct.Accounts) != 101 {
		t.Fatalf("booked %d phases, want 101", len(acct.Accounts))
	}
}
