package meanfield

// Steady-state allocation test: with a Workspace supplied, the count
// engine's phase loop — empirical-flow refresh, incremental board
// evaluation, table fill, binomial rounds — must not allocate. Measured as
// the marginal allocations of extra phases, which isolates the loop from
// per-run setup.

import (
	"context"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/policy"
)

func TestRunSteadyStateAllocationFree(t *testing.T) {
	inst := braess(t)
	pol, err := policy.Replicator(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	ws := flow.NewWorkspace()
	run := func(phases int) {
		s, err := New(inst, Config{
			N:            1_000_000,
			Policy:       pol,
			UpdatePeriod: 0.25,
			Horizon:      float64(phases) * 0.25,
			Seed:         7,
			Workspace:    ws,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	run(1) // warm the workspace before measuring
	short := testing.AllocsPerRun(5, func() { run(10) })
	long := testing.AllocsPerRun(5, func() { run(110) })
	// Setup (Sim construction, RNG, evaluator, final clone) is a constant;
	// the 100 extra phases must contribute nothing.
	if extra := long - short; extra > 0.5 {
		t.Fatalf("count: %g allocations per 100 extra phases, want 0", extra)
	}
}
