// Package agents implements the finite-population counterpart of the fluid
// limit: N agents with independent Poisson activation clocks reroute against
// a shared bulletin board. Within a phase every decision depends only on the
// frozen board and the agent's own current path, so agents are simulated in
// parallel shards (one goroutine each) with a barrier at phase boundaries —
// an exact simulation of the bulletin-board model, not an approximation.
// Comparing its empirical flows against the dynamics package validates that
// the paper's ODE is the N→∞ limit (experiment E10).
package agents

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"wardrop/internal/board"
	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/policy"
)

// Sentinel errors.
var (
	// ErrBadConfig indicates an invalid simulation configuration.
	ErrBadConfig = errors.New("agents: invalid config")
)

// Config parameterises a finite-N stochastic simulation.
type Config struct {
	// N is the total number of agents, split across commodities in
	// proportion to demand (each commodity gets at least one agent). Each
	// agent of commodity i carries weight r_i/n_i flow.
	N int
	// Policy is the rerouting policy.
	Policy policy.Policy
	// UpdatePeriod is the bulletin-board period T (> 0).
	UpdatePeriod float64
	// Horizon is the simulated time budget.
	Horizon float64
	// Seed makes runs reproducible. Runs are deterministic for a fixed
	// (Seed, Workers) pair.
	Seed uint64
	// Workers is the number of simulation goroutines (default: GOMAXPROCS,
	// capped by N).
	Workers int
	// RecordEvery records a sample every k phases (0 disables).
	RecordEvery int
	// Observer observes phase starts (with the empirical flow); returning
	// true stops the run. Compose several with dynamics.MultiObserver.
	Observer dynamics.Observer
	// InitialFlow, if non-nil, distributes each commodity's agents over its
	// paths proportionally to this (feasible) flow vector instead of the
	// default even spread. Rounding drift lands on the commodity's first
	// path.
	InitialFlow flow.Vector

	// Delta and Eps enable the (δ,ε)-equilibrium round accounting on the
	// empirical flow at each phase start, with the same semantics as the
	// fluid dynamics (Theorems 6 and 7). Delta <= 0 disables accounting.
	Delta float64
	Eps   float64
	// Weak selects the weak (δ,ε) metric (Definition 4).
	Weak bool
	// StopAfterSatisfiedStreak stops the run once this many consecutive
	// phases started at the configured approximate equilibrium (0 disables).
	StopAfterSatisfiedStreak int
	// Workspace, if non-nil, supplies the run's evaluation scratch (board
	// latencies, sampling tables, flow buffers; Reset at run entry); nil
	// allocates privately. See flow.Workspace for the reuse contract.
	Workspace *flow.Workspace
}

// Sim is a configured simulation bound to an instance. Create with New, run
// with RunContext or RunEventDrivenContext.
type Sim struct {
	inst *flow.Instance
	cfg  Config
	// agent state, sharded: shard s owns agents[s]. Agents never move
	// between shards; only their path index mutates.
	shards [][]agentState
	// weights[i] is the flow carried by one agent of commodity i.
	weights []float64
	// counts[s][g] is shard s's number of agents on global path g.
	counts [][]float64
}

type agentState struct {
	commodity int32
	path      int32 // commodity-local path index
}

// New validates the configuration and distributes agents over shards.
func New(inst *flow.Instance, cfg Config) (*Sim, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("%w: N=%d", ErrBadConfig, cfg.N)
	}
	if cfg.UpdatePeriod <= 0 {
		return nil, fmt.Errorf("%w: update period %g", ErrBadConfig, cfg.UpdatePeriod)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("%w: horizon %g", ErrBadConfig, cfg.Horizon)
	}
	if cfg.Policy.Sampler == nil || cfg.Policy.Migrator == nil {
		return nil, fmt.Errorf("%w: policy requires sampler and migrator", ErrBadConfig)
	}
	if err := dynamics.ValidateRunShape(ErrBadConfig, cfg.RecordEvery, cfg.Delta, cfg.Eps, cfg.StopAfterSatisfiedStreak); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers > cfg.N {
		cfg.Workers = cfg.N
	}

	s := &Sim{inst: inst, cfg: cfg}
	total := inst.TotalDemand()
	// Per-commodity agent counts proportional to demand, ≥ 1 each.
	perComm := make([]int, inst.NumCommodities())
	assigned := 0
	for i := range perComm {
		ni := int(math.Round(float64(cfg.N) * inst.Commodity(i).Demand / total))
		if ni < 1 {
			ni = 1
		}
		perComm[i] = ni
		assigned += ni
	}
	// Adjust the largest commodity for rounding drift.
	largest := 0
	for i := range perComm {
		if perComm[i] > perComm[largest] {
			largest = i
		}
	}
	perComm[largest] += cfg.N - assigned
	if perComm[largest] < 1 {
		return nil, fmt.Errorf("%w: N=%d too small for %d commodities", ErrBadConfig, cfg.N, inst.NumCommodities())
	}

	if cfg.InitialFlow != nil {
		if err := inst.Feasible(cfg.InitialFlow, 1e-9); err != nil {
			return nil, fmt.Errorf("%w: initial flow: %v", ErrBadConfig, err)
		}
	}
	s.weights = make([]float64, inst.NumCommodities())
	var all []agentState
	for i := range perComm {
		s.weights[i] = inst.Commodity(i).Demand / float64(perComm[i])
		np := inst.NumCommodityPaths(i)
		if cfg.InitialFlow == nil {
			// Spread each commodity's agents evenly over its paths (matching
			// the fluid runs' uniform initial flow as closely as integrality
			// allows).
			for a := 0; a < perComm[i]; a++ {
				all = append(all, agentState{commodity: int32(i), path: int32(a % np)})
			}
			continue
		}
		// Proportional placement: floor per path, drift onto the first path.
		lo, _ := inst.CommodityRange(i)
		demand := inst.Commodity(i).Demand
		placed := 0
		for p := 0; p < np; p++ {
			n := int(math.Floor(cfg.InitialFlow[lo+p] / demand * float64(perComm[i])))
			for a := 0; a < n && placed < perComm[i]; a++ {
				all = append(all, agentState{commodity: int32(i), path: int32(p)})
				placed++
			}
		}
		for ; placed < perComm[i]; placed++ {
			all = append(all, agentState{commodity: int32(i), path: 0})
		}
	}
	// Round-robin deal to shards so every shard holds a commodity mix.
	s.shards = make([][]agentState, cfg.Workers)
	for idx, a := range all {
		w := idx % cfg.Workers
		s.shards[w] = append(s.shards[w], a)
	}
	s.counts = make([][]float64, cfg.Workers)
	for w := range s.counts {
		s.counts[w] = make([]float64, inst.NumPaths())
		for _, a := range s.shards[w] {
			g := inst.GlobalIndex(int(a.commodity), int(a.path))
			s.counts[w][g]++
		}
	}
	return s, nil
}

// EmpiricalFlow returns the current empirical flow vector (agent counts
// times agent weights).
func (s *Sim) EmpiricalFlow() flow.Vector {
	f := make(flow.Vector, s.inst.NumPaths())
	s.empiricalInto(f)
	return f
}

// empiricalInto writes the current empirical flow into f, reusing the
// caller's buffer. The accumulation (shard-major, ascending path, zero
// counts skipped) is exactly EmpiricalFlow's, so the reused-buffer value is
// bitwise the allocating one.
func (s *Sim) empiricalInto(f flow.Vector) {
	for g := range f {
		f[g] = 0
	}
	for w := range s.counts {
		for g, c := range s.counts[w] {
			if c != 0 {
				f[g] += c * s.weights[s.inst.CommodityOf(g)]
			}
		}
	}
}

// newAcct builds the shared (δ,ε) round accounting from the config.
func newAcct(cfg Config) dynamics.RoundAccounting {
	return dynamics.NewRoundAccounting(cfg.Delta, cfg.Eps, cfg.Weak, cfg.StopAfterSatisfiedStreak)
}

// RunContext simulates until the horizon (or an observer stop) and returns
// the result. The Result's Phases/Trajectory/UnsatisfiedPhases semantics
// match the dynamics package. Cancellation is checked between phases: when
// ctx is done the partial result accumulated so far is returned together
// with ctx.Err().
//
// Board refreshes run on the compiled flow.Evaluator kernel: because a
// phase only moves agents between a few paths, the refresh diffs the
// empirical flow against the previous phase and applies an incremental
// update touching only the affected edges and dependent paths (falling
// back to a full evaluation when the phase churned most of the strategy
// space). Both modes are bit-identical to the full reference evaluation,
// so the board — and hence every sampled decision — is unchanged.
func (s *Sim) RunContext(ctx context.Context) (*dynamics.Result, error) {
	b, err := board.New(s.cfg.UpdatePeriod)
	if err != nil {
		return nil, fmt.Errorf("agents: %w", err)
	}
	res := &dynamics.Result{}
	nPaths := s.inst.NumPaths()
	ws := s.cfg.Workspace
	ws.Reset()
	ev := flow.NewEvaluator(s.inst, ws)
	// Double-buffered empirical flow: curF is the phase-start state posted
	// on the board (stable while shards run), prevF the previous phase's,
	// so the refresh knows exactly which paths changed.
	curF := flow.Vector(ws.Floats(nPaths))
	prevF := ws.Floats(nPaths)
	changed := make([]int, 0, nPaths)

	// Per-phase sampler probability tables: probTab[i] is an n_i×n_i
	// row-major table, row = origin. Computed once per phase (board frozen),
	// shared read-only by all workers; the backing memory comes from the
	// run's workspace.
	probTab := make([][]float64, s.inst.NumCommodities())
	for i := range probTab {
		n := s.inst.NumCommodityPaths(i)
		probTab[i] = ws.Floats(n * n)
	}
	sharedSampler := policy.OriginInvariant(s.cfg.Policy.Sampler)

	rngs := make([]*RNG, s.cfg.Workers)
	for w := range rngs {
		rngs[w] = NewRNG(s.cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(w+1)))
	}

	// refresh brings the evaluator in line with the current agent counts.
	refresh := func() {
		s.empiricalInto(curF)
		syncEvaluator(ev, curF, prevF, &changed)
	}
	// finish fills the result's terminal fields from the current empirical
	// state; shared by normal completion and cancellation paths.
	finish := func(t float64) *dynamics.Result {
		refresh()
		res.Final = curF.Clone()
		res.FinalPotential = ev.Potential()
		res.Elapsed = t
		return res
	}

	account := newAcct(s.cfg)
	t := 0.0
	for phase := 0; t < s.cfg.Horizon-1e-12; phase++ {
		if err := ctx.Err(); err != nil {
			return finish(t), err
		}
		refresh()
		pl := ev.PathLatencies()
		phi := ev.Potential()
		b.Post(board.Snapshot{
			Time:          t,
			EdgeLatencies: ev.EdgeLatencies(),
			PathLatencies: pl,
			PathFlows:     curF,
		})

		info := dynamics.PhaseInfo{Index: phase, Time: t, Flow: curF, PathLatencies: pl, Potential: phi}
		streakStop := account.Observe(s.inst, &info, res)
		if s.cfg.RecordEvery > 0 && phase%s.cfg.RecordEvery == 0 {
			res.Trajectory = append(res.Trajectory, dynamics.Sample{Time: t, Potential: phi, Flow: curF.Clone()})
		}
		if stop := s.observePhase(info); stop || streakStop {
			res.Stopped = true
			break
		}

		// Fill per-commodity sampling tables from the board.
		snap, _ := b.Read()
		s.fillProbTab(probTab, sharedSampler, snap)

		tau := math.Min(s.cfg.UpdatePeriod, s.cfg.Horizon-t)
		phaseDone := true
		if s.cfg.Workers == 1 {
			// Single-worker runs (the sweep engine's per-task default) stay
			// on this goroutine: no spawn, no barrier, no per-phase
			// allocation — and the same RNG stream as the spawned form.
			phaseDone = s.runShard(ctx, 0, rngs[0], snap, probTab, tau)
		} else {
			var (
				wg      sync.WaitGroup
				aborted atomic.Bool
			)
			for w := 0; w < s.cfg.Workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					if !s.runShard(ctx, w, rngs[w], snap, probTab, tau) {
						aborted.Store(true)
					}
				}(w)
			}
			wg.Wait()
			phaseDone = !aborted.Load()
		}
		// Shards bail between agents once ctx is done, so even a single
		// giant phase (Horizon <= UpdatePeriod, large N) stays
		// interruptible. Only a genuinely abandoned phase returns here —
		// a phase that completed despite a late cancellation is counted
		// normally and the loop-top check reports the cancellation at the
		// next phase boundary, matching the fluid engine.
		if !phaseDone {
			return finish(t), ctx.Err()
		}
		t += tau
		res.Phases++
	}
	return finish(t), nil
}

// observePhase delivers a phase start to the configured observer, if any.
func (s *Sim) observePhase(info dynamics.PhaseInfo) bool {
	return s.cfg.Observer != nil && s.cfg.Observer.ObservePhase(info)
}

// syncEvaluator diffs curF against prevF, applies the (incremental when
// sparse) kernel update, and records curF as the evaluator's last-seen
// state. changed is reused diff scratch. It is the one definition of the
// between-phase refresh bookkeeping, shared by the batched and
// event-driven engines so their boards can never desynchronize.
func syncEvaluator(ev *flow.Evaluator, curF flow.Vector, prevF []float64, changed *[]int) {
	cs := (*changed)[:0]
	for g := range curF {
		if curF[g] != prevF[g] {
			cs = append(cs, g)
		}
	}
	*changed = cs
	ev.Update(curF, cs)
	copy(prevF, curF)
}

// fillProbTab fills the per-commodity sampling tables (probTab[i] is an
// n_i×n_i row-major table, row = origin) from the board snapshot. With an
// origin-invariant (shared) sampler one row is computed per commodity and
// copied across origins instead of re-deriving it n times. Shared by the
// batched and event-driven engines so they sample identically.
func (s *Sim) fillProbTab(probTab [][]float64, shared bool, snap board.Snapshot) {
	for i := range probTab {
		lo, hi := s.inst.CommodityRange(i)
		n := hi - lo
		flows := snap.PathFlows[lo:hi]
		lats := snap.PathLatencies[lo:hi]
		if shared && n > 0 {
			s.cfg.Policy.Sampler.Probabilities(0, flows, lats, probTab[i][:n])
			for origin := 1; origin < n; origin++ {
				copy(probTab[i][origin*n:(origin+1)*n], probTab[i][:n])
			}
			continue
		}
		for origin := 0; origin < n; origin++ {
			s.cfg.Policy.Sampler.Probabilities(origin, flows, lats, probTab[i][origin*n:(origin+1)*n])
		}
	}
}

// runShard advances one shard through a phase of length tau against the
// frozen board snapshot. Every agent activates Poisson(tau) times; each
// activation samples a path from the board-derived table and migrates with
// the policy's probability computed on board latencies. The shard checks
// ctx every ctxCheckEvents activation events (like the event-driven engine,
// and never before the first, so short phases always complete) and reports
// whether it finished the phase; the per-shard counts remain consistent at
// whatever activation it stopped at.
func (s *Sim) runShard(ctx context.Context, w int, rng *RNG, snap board.Snapshot, probTab [][]float64, tau float64) bool {
	shard := s.shards[w]
	counts := s.counts[w]
	mig := s.cfg.Policy.Migrator
	activations := newPoisson(tau)
	events := 0
	for idx := range shard {
		a := &shard[idx]
		k := activations.draw(rng)
		if k == 0 {
			continue
		}
		i := int(a.commodity)
		lo, _ := s.inst.CommodityRange(i)
		n := s.inst.NumCommodityPaths(i)
		lats := snap.PathLatencies[lo : lo+n]
		for act := 0; act < k; act++ {
			if events > 0 && events%ctxCheckEvents == 0 && ctx.Err() != nil {
				return false
			}
			events++
			origin := int(a.path)
			row := probTab[i][origin*n : (origin+1)*n]
			q := policy.SampleIndex(row, rng.Float64())
			if q == origin {
				continue
			}
			p := mig.Probability(lats[origin], lats[q])
			if p > 0 && rng.Float64() < p {
				counts[lo+origin]--
				counts[lo+q]++
				a.path = int32(q)
			}
		}
	}
	return true
}
