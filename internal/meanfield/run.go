package meanfield

import (
	"context"
	"math"

	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/policy"
)

// RunContext simulates until the horizon (or an observer stop) and returns
// the result. The Result's Phases/Trajectory/UnsatisfiedPhases semantics
// match the dynamics package, and cancellation is checked between phases
// with the partial result returned alongside ctx.Err() — the same contract
// as every other engine.
//
// Board refreshes run on the compiled flow.Evaluator kernel with the same
// incremental diff update as the per-agent engine, and all per-phase scratch
// comes from the run's workspace, so phases are allocation-free after the
// first.
func (s *Sim) RunContext(ctx context.Context) (*dynamics.Result, error) {
	res := &dynamics.Result{}
	nPaths := s.inst.NumPaths()
	ws := s.cfg.Workspace
	ws.Reset()
	ev := flow.NewEvaluator(s.inst, ws)
	// Double-buffered empirical flow: curF is the phase-start state, prevF
	// the previous phase's, so the refresh knows exactly which paths changed.
	curF := flow.Vector(ws.Floats(nPaths))
	prevF := ws.Floats(nPaths)
	changed := make([]int, 0, nPaths)

	// Per-phase policy tables: probTab[i] is the n_i×n_i row-major sampling
	// table (row = origin), rates[i] the same shape holding the
	// one-activation migration probability to each destination (sampling
	// probability × migration acceptance; the diagonal stays zero — staying
	// is the row's complement). The backing memory comes from the workspace.
	probTab := make([][]float64, s.inst.NumCommodities())
	rates := make([][]float64, s.inst.NumCommodities())
	for i := range probTab {
		n := s.inst.NumCommodityPaths(i)
		probTab[i] = ws.Floats(n * n)
		rates[i] = ws.Floats(n * n)
	}
	sharedSampler := policy.OriginInvariant(s.cfg.Policy.Sampler)
	rng := NewRNG(s.cfg.Seed)

	// refresh brings the evaluator in line with the current counts: diff the
	// empirical flow against the previous phase and apply the (incremental
	// when sparse) kernel update.
	refresh := func() {
		s.empiricalInto(curF)
		cs := changed[:0]
		for g := range curF {
			if curF[g] != prevF[g] {
				cs = append(cs, g)
			}
		}
		changed = cs
		ev.Refresh(curF, cs...)
		copy(prevF, curF)
	}
	finish := func(t float64) *dynamics.Result {
		refresh()
		res.Final = curF.Clone()
		res.FinalPotential = ev.Potential()
		res.Elapsed = t
		return res
	}

	account := dynamics.NewRoundAccounting(s.cfg.Delta, s.cfg.Eps, s.cfg.Weak, s.cfg.StopAfterSatisfiedStreak)
	t := 0.0
	for phase := 0; t < s.cfg.Horizon-1e-12; phase++ {
		if err := ctx.Err(); err != nil {
			return finish(t), err
		}
		refresh()
		pl := ev.PathLatencies()
		phi := ev.Potential()

		info := dynamics.PhaseInfo{Index: phase, Time: t, Flow: curF, PathLatencies: pl, Potential: phi}
		streakStop := account.Observe(s.inst, &info, res)
		if s.cfg.RecordEvery > 0 && phase%s.cfg.RecordEvery == 0 {
			res.Trajectory = append(res.Trajectory, dynamics.Sample{Time: t, Potential: phi, Flow: curF.Clone()})
		}
		if stop := s.cfg.Observer != nil && s.cfg.Observer.ObservePhase(info); stop || streakStop {
			res.Stopped = true
			break
		}

		s.fillTables(probTab, rates, sharedSampler, curF, pl)
		tau := math.Min(s.cfg.UpdatePeriod, s.cfg.Horizon-t)
		s.advancePhase(rng, rates, tau)
		t += tau
		res.Phases++
	}
	return finish(t), nil
}

// fillTables fills the per-commodity sampling tables from the frozen board
// (the per-agent engine's fillProbTab, sharing one row across origins for
// origin-invariant samplers) and derives the one-activation migration rates:
// rates[i][p·n+q] = P(sample q)·P(accept the migration) for q ≠ p.
func (s *Sim) fillTables(probTab, rates [][]float64, shared bool, curF flow.Vector, pl []float64) {
	mig := s.cfg.Policy.Migrator
	for i := range probTab {
		lo, hi := s.inst.CommodityRange(i)
		n := hi - lo
		flows := curF[lo:hi]
		lats := pl[lo:hi]
		if shared && n > 0 {
			s.cfg.Policy.Sampler.Probabilities(0, flows, lats, probTab[i][:n])
			for origin := 1; origin < n; origin++ {
				copy(probTab[i][origin*n:(origin+1)*n], probTab[i][:n])
			}
		} else {
			for origin := 0; origin < n; origin++ {
				s.cfg.Policy.Sampler.Probabilities(origin, flows, lats, probTab[i][origin*n:(origin+1)*n])
			}
		}
		for p := 0; p < n; p++ {
			row := probTab[i][p*n : (p+1)*n]
			out := rates[i][p*n : (p+1)*n]
			for q := 0; q < n; q++ {
				if q == p || row[q] <= 0 {
					out[q] = 0
					continue
				}
				out[q] = row[q] * mig.Probability(lats[p], lats[q])
			}
		}
	}
}

// advancePhase samples the phase-end counts for a phase of length tau. Each
// agent activates K ~ Poisson(tau) times; conditioned on the frozen board
// its activations are one-step transitions with the precomputed rates. The
// count form processes activations in rounds: thin each row into the agents
// with K ≥ 1 (one binomial per row), then per round split every active row
// multinomially over its destinations and thin the survivors by the Poisson
// tail ratio P(K ≥ r+1)/P(K ≥ r), until nobody has activations left. The
// expected round count is the maximum of N Poisson(tau) draws — O(log N /
// log log N) — so phase cost is essentially population-independent.
func (s *Sim) advancePhase(rng *RNG, rates [][]float64, tau float64) {
	q1 := -math.Expm1(-tau) // P(K >= 1)
	if q1 <= 0 {
		return
	}
	anyActive := false
	for g, c := range s.counts {
		if c == 0 {
			continue
		}
		a := rng.Binomial(c, q1)
		s.counts[g] = c - a
		s.active[g] = a
		anyActive = anyActive || a > 0
	}
	// The Poisson pmf is tracked in log space so large tau (where e^-tau
	// underflows) still yields correct tail ratios.
	logTau := math.Log(tau)
	logPmf := -tau // log P(K = 0)
	qr := q1       // P(K >= r) for the current round r
	for r := int64(1); anyActive; r++ {
		// One activation round: multinomial-split each active row over its
		// migration destinations; the un-migrated remainder stays put. The
		// conditional-binomial chain skips zero-rate destinations, so a round
		// costs one Binomial per reachable improvement, not per path pair.
		for i := range rates {
			lo, hi := s.inst.CommodityRange(i)
			n := hi - lo
			for p := 0; p < n; p++ {
				a := s.active[lo+p]
				if a == 0 {
					continue
				}
				s.active[lo+p] = 0
				row := rates[i][p*n : (p+1)*n]
				rem := a
				remP := 1.0
				for q := 0; q < n && rem > 0 && remP > 0; q++ {
					pq := row[q]
					if pq <= 0 {
						continue
					}
					x := rng.Binomial(rem, pq/remP)
					s.landed[lo+q] += x
					rem -= x
					remP -= pq
				}
				s.landed[lo+p] += rem
			}
		}
		// Thin into round r+1 by the activation-count tail ratio.
		logPmf += logTau - math.Log(float64(r))
		qNext := qr - math.Exp(logPmf)
		if qNext < 0 {
			qNext = 0
		}
		ratio := 0.0
		if qr > 0 {
			ratio = qNext / qr
		}
		anyActive = false
		for g, a := range s.landed {
			if a == 0 {
				continue
			}
			s.landed[g] = 0
			keep := rng.Binomial(a, ratio)
			s.counts[g] += a - keep
			s.active[g] = keep
			anyActive = anyActive || keep > 0
		}
		qr = qNext
	}
}
