package agents

import (
	"context"
	"math"

	"wardrop/internal/board"
	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/policy"
)

// ctxCheckEvents is how many activation events the event-driven engine
// processes between context checks — often enough that cancellation is
// prompt even when a whole run fits inside one board phase, rarely enough
// that the check cost vanishes against the per-event RNG work.
const ctxCheckEvents = 1024

// RunEventDrivenContext simulates the same finite-N bulletin-board system
// as RunContext, but with an exact global event clock instead of per-phase
// Poisson batching: the superposition of the N agents' rate-1 Poisson clocks
// is a rate-N Poisson process, so the engine draws Exp(N) inter-activation
// gaps and activates a uniformly random agent at each event, refreshing the
// board whenever the clock crosses a multiple of T.
//
// Both engines sample the same process law (within a phase the board is
// frozen, so the batched engine's per-agent Poisson counts are exactly the
// thinned global process); this engine is the single-threaded reference for
// the clock ablation and for workloads where activation-order detail
// matters. It honours Config.Seed/Observer/RecordEvery and the (δ,ε)
// accounting fields; Workers is ignored.
//
// ctx is checked at every board refresh and every ctxCheckEvents activation
// events, and when it is done the partial result is returned together with
// ctx.Err().
func (s *Sim) RunEventDrivenContext(ctx context.Context) (*dynamics.Result, error) {
	b, err := board.New(s.cfg.UpdatePeriod)
	if err != nil {
		return nil, err
	}
	rng := NewRNG(s.cfg.Seed ^ 0xd1b54a32d192ed03)

	// Flatten the shards into one agent array with cumulative indexing.
	var all []agentState
	for _, shard := range s.shards {
		all = append(all, shard...)
	}
	nAgents := len(all)
	counts := make([]float64, s.inst.NumPaths())
	for _, a := range all {
		counts[s.inst.GlobalIndex(int(a.commodity), int(a.path))]++
	}

	res := &dynamics.Result{}
	nPaths := s.inst.NumPaths()
	ws := s.cfg.Workspace
	ws.Reset()
	ev := flow.NewEvaluator(s.inst, ws)
	curF := flow.Vector(ws.Floats(nPaths))
	prevF := ws.Floats(nPaths)
	changed := make([]int, 0, nPaths)
	probTab := make([][]float64, s.inst.NumCommodities())
	for i := range probTab {
		n := s.inst.NumCommodityPaths(i)
		probTab[i] = ws.Floats(n * n)
	}
	sharedSampler := policy.OriginInvariant(s.cfg.Policy.Sampler)

	// refresh brings the evaluator in line with the current counts: between
	// board refreshes only individually activated agents moved, so the
	// incremental path touches a handful of edges (bit-identical to the
	// full reference evaluation either way).
	refresh := func() {
		for g := range curF {
			curF[g] = counts[g] * s.weights[s.inst.CommodityOf(g)]
		}
		syncEvaluator(ev, curF, prevF, &changed)
	}

	post := func(t float64, phase int) (dynamics.PhaseInfo, board.Snapshot) {
		refresh()
		pl := ev.PathLatencies()
		snap := board.Snapshot{
			Time:          t,
			EdgeLatencies: ev.EdgeLatencies(),
			PathLatencies: pl,
			PathFlows:     curF,
		}
		b.Post(snap)
		s.fillProbTab(probTab, sharedSampler, snap)
		return dynamics.PhaseInfo{Index: phase, Time: t, Flow: curF, PathLatencies: pl, Potential: ev.Potential()}, snap
	}

	// partial fills the result's terminal fields from the current empirical
	// state; shared by completion and cancellation paths.
	partial := func(elapsed float64) *dynamics.Result {
		refresh()
		res.Final = curF.Clone()
		res.FinalPotential = ev.Potential()
		res.Elapsed = elapsed
		return res
	}

	account := newAcct(s.cfg)
	t := 0.0
	phase := 0
	if err := ctx.Err(); err != nil {
		return partial(0), err
	}
	info, snap := post(t, phase)
	streakStop := account.Observe(s.inst, &info, res)
	if s.cfg.RecordEvery > 0 {
		res.Trajectory = append(res.Trajectory, dynamics.Sample{Time: t, Potential: info.Potential, Flow: append([]float64(nil), info.Flow...)})
	}
	if stop := s.observePhase(info); stop || streakStop {
		res.Stopped = true
	}
	nextBoard := s.cfg.UpdatePeriod
	mig := s.cfg.Policy.Migrator
	for events := 0; !res.Stopped; events++ {
		if events%ctxCheckEvents == 0 {
			if err := ctx.Err(); err != nil {
				return partial(math.Min(t, s.cfg.Horizon)), err
			}
		}
		// Exp(N) inter-activation gap.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		gap := -math.Log(u) / float64(nAgents)
		t += gap
		if t >= s.cfg.Horizon {
			t = s.cfg.Horizon
			break
		}
		// Board refreshes strictly between activations (measure-zero ties).
		for nextBoard <= t {
			if err := ctx.Err(); err != nil {
				return partial(nextBoard), err
			}
			phase++
			res.Phases++
			var hinfo dynamics.PhaseInfo
			hinfo, snap = post(nextBoard, phase)
			hStreakStop := account.Observe(s.inst, &hinfo, res)
			if s.cfg.RecordEvery > 0 && phase%s.cfg.RecordEvery == 0 {
				res.Trajectory = append(res.Trajectory, dynamics.Sample{
					Time: nextBoard, Potential: hinfo.Potential, Flow: append([]float64(nil), hinfo.Flow...),
				})
			}
			if stop := s.observePhase(hinfo); stop || hStreakStop {
				res.Stopped = true
				break
			}
			nextBoard += s.cfg.UpdatePeriod
		}
		if res.Stopped {
			break
		}
		// Activate a uniformly random agent.
		a := &all[rng.Uint64()%uint64(nAgents)]
		i := int(a.commodity)
		lo, _ := s.inst.CommodityRange(i)
		n := s.inst.NumCommodityPaths(i)
		lats := snap.PathLatencies[lo : lo+n]
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
	return partial(math.Min(t, s.cfg.Horizon)), nil
}
