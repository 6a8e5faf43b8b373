package wardrop

import (
	"context"

	"wardrop/internal/dynamics"
	"wardrop/internal/engine"
)

// Unified simulation API ------------------------------------------------------
//
// Run(ctx, scenario, opts...) is the single entry point for every dynamics:
// a Scenario says what to simulate (instance, policy, information model,
// initial flow, run shape), an Engine says how (fluid limit, best response,
// finite-N agents, counts), and Observers watch or stop the run.

// Scenario declares one simulation: instance + policy + information model +
// initial flow + run shape. See engine.Scenario.
type Scenario = engine.Scenario

// Engine executes a Scenario under one dynamics family; implementations are
// FluidEngine, BestResponseEngine, AgentsEngine and CountEngine.
type Engine = engine.Engine

// EngineSpec is the JSON document shape for selecting an engine by name
// ("fluid", "fresh", "bestresponse", "agents", "count").
type EngineSpec = engine.Spec

// FluidEngine integrates the fluid-limit ODE: stale information (Eq. 3) by
// default, fresh information (Eq. 1) when Fresh is set.
type FluidEngine = engine.Fluid

// BestResponseEngine integrates the best-response differential inclusion
// under stale information (Eq. 4) with exact per-phase relaxation.
type BestResponseEngine = engine.BestResponse

// AgentsEngine runs the finite-N stochastic bulletin-board simulation. It
// holds every agent in memory, so N is capped at MaxAgentPopulation; larger
// populations belong on CountEngine.
type AgentsEngine = engine.Agents

// CountEngine runs the mean-field count engine: the same finite-N
// stochastic process as AgentsEngine, represented as integer counts per
// (commodity, path), so a phase costs O(paths) independent of the
// population — millions of agents cost the same as thousands.
type CountEngine = engine.Count

// MaxAgentPopulation is the largest population AgentsEngine accepts; larger
// populations must use CountEngine.
const MaxAgentPopulation = engine.MaxAgentPopulation

// RunOption configures one Run call.
type RunOption = engine.RunOption

// Result is the unified simulation outcome shared by every engine and by
// SimulateHedge.
type Result = engine.Result

// Run executes the scenario on its engine (FluidEngine when the scenario
// leaves Engine nil). Cancellation is checked between phases: when ctx is
// done the partial result accumulated so far is returned together with
// ctx.Err().
func Run(ctx context.Context, sc Scenario, opts ...RunOption) (*Result, error) {
	return engine.Run(ctx, sc, opts...)
}

// NewEngine returns a default-configured engine by name ("fluid", "fresh",
// "bestresponse"); the agents engine needs a population — use an EngineSpec
// or an AgentsEngine value.
func NewEngine(name string) (Engine, error) { return engine.New(name) }

// IsInterrupt reports whether err is context cancellation (Canceled or
// DeadlineExceeded) — the errors Run and RunSweep return together with a
// partial result, e.g. after SIGINT.
func IsInterrupt(err error) bool { return engine.IsCancellation(err) }

// WithObserver attaches observers to a run; multiple options and multiple
// observers compose (fan-out).
func WithObserver(obs ...Observer) RunOption { return engine.WithObserver(obs...) }

// Observers ------------------------------------------------------------------

// Observer receives every phase start; returning true from ObservePhase
// stops the run. It is the one phase hook of every engine.
type Observer = dynamics.Observer

// ObserverFunc adapts a plain function to the Observer interface.
type ObserverFunc = dynamics.ObserverFunc

// Observers fans one phase stream out to several observers; every observer
// sees every phase and the run stops if any of them asked to.
func Observers(obs ...Observer) Observer { return dynamics.MultiObserver(obs...) }

// TrajectoryRecorder is an Observer recording a Sample every Every phases
// into Samples.
type TrajectoryRecorder = dynamics.TrajectoryRecorder

// EquilibriumStopper is an Observer stopping a run once a configured number
// of consecutive phases start at a (δ,ε)-equilibrium; create with
// NewEquilibriumStopper.
type EquilibriumStopper = dynamics.EquilibriumStopper

// NewEquilibriumStopper builds an EquilibriumStopper for the instance. weak
// selects the Definition 4 metric; streak <= 0 only counts, never stops.
func NewEquilibriumStopper(inst *Instance, delta, eps float64, weak bool, streak int) *EquilibriumStopper {
	return dynamics.NewEquilibriumStopper(inst, delta, eps, weak, streak)
}

// ProgressReporter is an Observer printing a liveness line every Every
// phases to W.
type ProgressReporter = dynamics.ProgressReporter
