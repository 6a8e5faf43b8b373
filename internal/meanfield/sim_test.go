package meanfield

import (
	"context"
	"math"
	"testing"

	"wardrop/internal/agents"
	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

func braess(t *testing.T) *flow.Instance {
	t.Helper()
	inst, err := topo.Braess()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func testPolicy(t *testing.T, inst *flow.Instance) policy.Policy {
	t.Helper()
	mig, err := policy.NewLinear(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	return policy.Policy{Sampler: policy.Proportional{}, Migrator: mig}
}

func baseConfig(t *testing.T, inst *flow.Instance) Config {
	t.Helper()
	return Config{
		N:            2000,
		Policy:       testPolicy(t, inst),
		UpdatePeriod: 0.25,
		Horizon:      5,
		Seed:         42,
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	inst := braess(t)
	cases := []struct {
		name string
		edit func(Config) Config
	}{
		{"zero N", func(c Config) Config { c.N = 0; return c }},
		{"negative N", func(c Config) Config { c.N = -5; return c }},
		{"over max population", func(c Config) Config { c.N = MaxPopulation + 1; return c }},
		{"zero period", func(c Config) Config { c.UpdatePeriod = 0; return c }},
		{"zero horizon", func(c Config) Config { c.Horizon = 0; return c }},
		{"no policy", func(c Config) Config { c.Policy = policy.Policy{}; return c }},
		{"negative recordEvery", func(c Config) Config { c.RecordEvery = -1; return c }},
		{"delta without eps", func(c Config) Config { c.Delta = 0.1; c.Eps = -1; return c }},
		{"infeasible initial flow", func(c Config) Config {
			c.InitialFlow = flow.Vector{1, 1, 1}
			return c
		}},
	}
	for _, c := range cases {
		if _, err := New(inst, c.edit(baseConfig(t, inst))); err == nil {
			t.Errorf("%s: New accepted the config", c.name)
		}
	}
	if _, err := New(inst, baseConfig(t, inst)); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
}

// The count engine's initial placement must be the exact count form of the
// per-agent engine's: same per-commodity split, same even spread, same
// proportional placement with drift on the first path — so both engines
// start from bit-identical empirical flows.
func TestInitialPlacementMatchesAgents(t *testing.T) {
	inst := braess(t)
	pol := testPolicy(t, inst)
	skewed := flow.Vector{0.05, 0.9, 0.05}
	for _, tc := range []struct {
		name string
		n    int64
		f0   flow.Vector
	}{
		{"even spread", 301, nil},
		{"even spread divisible", 300, nil},
		{"proportional", 997, skewed},
		{"single agent", 1, nil},
	} {
		cs, err := New(inst, Config{N: tc.n, Policy: pol, UpdatePeriod: 0.25, Horizon: 1, InitialFlow: tc.f0})
		if err != nil {
			t.Fatalf("%s: meanfield: %v", tc.name, err)
		}
		as, err := agents.New(inst, agents.Config{N: int(tc.n), Policy: pol, UpdatePeriod: 0.25, Horizon: 1, Workers: 1, InitialFlow: tc.f0})
		if err != nil {
			t.Fatalf("%s: agents: %v", tc.name, err)
		}
		cf, af := cs.EmpiricalFlow(), as.EmpiricalFlow()
		for g := range cf {
			if cf[g] != af[g] {
				t.Errorf("%s: initial flow[%d] = %g (count) vs %g (agents)", tc.name, g, cf[g], af[g])
			}
		}
	}
}

// Per-commodity totals are invariant under every phase: no split may create
// or destroy agents.
func TestCountConservationAcrossPhases(t *testing.T) {
	for _, build := range []struct {
		name string
		make func() (*flow.Instance, error)
	}{
		{"pigou", topo.Pigou},
		{"braess", topo.Braess},
		{"links", func() (*flow.Instance, error) { return topo.LinearParallelLinks(6) }},
	} {
		inst, err := build.make()
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(inst, Config{
			N:            12345,
			Policy:       testPolicy(t, inst),
			UpdatePeriod: 0.5,
			Horizon:      20,
			Seed:         9,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int64, inst.NumCommodities())
		for g, c := range s.counts {
			want[inst.CommodityOf(g)] += c
		}
		if _, err := s.RunContext(context.Background()); err != nil {
			t.Fatalf("%s: %v", build.name, err)
		}
		got := make([]int64, inst.NumCommodities())
		for g, c := range s.counts {
			if c < 0 {
				t.Fatalf("%s: negative count on path %d: %d", build.name, g, c)
			}
			got[inst.CommodityOf(g)] += c
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: commodity %d count %d, want %d", build.name, i, got[i], want[i])
			}
		}
		// The round buffers must be fully drained between phases.
		for g := range s.active {
			if s.active[g] != 0 || s.landed[g] != 0 {
				t.Fatalf("%s: round buffers not drained at path %d", build.name, g)
			}
		}
	}
}

// Large update periods exercise the log-space Poisson tail (e^-tau
// underflows for tau > ~745); counts must still conserve and the run must
// terminate.
func TestHugeUpdatePeriodConserves(t *testing.T) {
	inst := braess(t)
	s, err := New(inst, Config{
		N:            500,
		Policy:       testPolicy(t, inst),
		UpdatePeriod: 800,
		Horizon:      800,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range s.counts {
		total += c
	}
	if total != 500 {
		t.Fatalf("population %d after huge phase, want 500", total)
	}
}

// Fixed (seed, config) pairs are fully deterministic, and the seed matters.
func TestDeterminism(t *testing.T) {
	inst := braess(t)
	run := func(seed uint64) flow.Vector {
		cfg := baseConfig(t, inst)
		cfg.Seed = seed
		s, err := New(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Final
	}
	a, b := run(42), run(42)
	for g := range a {
		if a[g] != b[g] {
			t.Fatalf("same seed diverged at path %d: %g vs %g", g, a[g], b[g])
		}
	}
	c := run(43)
	same := true
	for g := range a {
		if a[g] != c[g] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical finals")
	}
}

// Run-shape plumbing: trajectory sampling, streak stop and observer stop
// behave exactly like the other engines.
func TestRunShape(t *testing.T) {
	inst := braess(t)
	cfg := baseConfig(t, inst)
	cfg.RecordEvery = 2
	s, err := New(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantPhases := int(math.Ceil(cfg.Horizon / cfg.UpdatePeriod))
	if res.Phases != wantPhases {
		t.Errorf("phases = %d, want %d", res.Phases, wantPhases)
	}
	wantSamples := (wantPhases + 1) / 2
	if len(res.Trajectory) != wantSamples {
		t.Errorf("trajectory samples = %d, want %d", len(res.Trajectory), wantSamples)
	}
	if res.Elapsed != cfg.Horizon {
		t.Errorf("elapsed = %g, want %g", res.Elapsed, cfg.Horizon)
	}

	// Streak stop: with delta accounting on a generous (δ,ε) the run should
	// stop early and report Stopped.
	cfg = baseConfig(t, inst)
	cfg.Horizon = 500
	cfg.Delta = 0.5
	cfg.Eps = 0.25
	cfg.StopAfterSatisfiedStreak = 5
	s, err = New(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("streak stop never fired on a generous (δ,ε)")
	}

	// Observer stop at a fixed phase.
	cfg = baseConfig(t, inst)
	cfg.Observer = dynamics.ObserverFunc(func(info dynamics.PhaseInfo) bool {
		return info.Index >= 3
	})
	s, err = New(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases != 3 || !res.Stopped {
		t.Errorf("observer stop: phases = %d stopped = %v, want 3/true", res.Phases, res.Stopped)
	}
}

// Cancellation between phases returns the partial result with ctx.Err().
func TestCancellation(t *testing.T) {
	inst := braess(t)
	cfg := baseConfig(t, inst)
	cfg.Horizon = 1e6
	s, err := New(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cfg2 := cfg
	cfg2.Observer = dynamics.ObserverFunc(func(info dynamics.PhaseInfo) bool {
		if info.Index == 5 {
			cancel()
		}
		return false
	})
	s, err = New(inst, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunContext(ctx)
	if err == nil || res == nil {
		t.Fatalf("cancelled run: res=%v err=%v, want partial result with error", res, err)
	}
	if res.Phases < 5 {
		t.Errorf("cancelled run completed %d phases, want >= 5", res.Phases)
	}
}

// BenchmarkCountRun measures a full count-engine run — millions of agents,
// O(paths) per phase — with the workspace shared across iterations so the
// steady-state allocation profile is what b.ReportAllocs sees.
func BenchmarkCountRun(b *testing.B) {
	inst, err := topo.Braess()
	if err != nil {
		b.Fatal(err)
	}
	mig, err := policy.NewLinear(inst.LMax())
	if err != nil {
		b.Fatal(err)
	}
	pol := policy.Policy{Sampler: policy.Proportional{}, Migrator: mig}
	ws := flow.NewWorkspace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := New(inst, Config{
			N:            1_000_000,
			Policy:       pol,
			UpdatePeriod: 0.25,
			Horizon:      10,
			Seed:         7,
			Workspace:    ws,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
