package dynamics

import (
	"wardrop/internal/flow"
)

// PhaseAccount records the potential bookkeeping of one phase for the
// Lemma 3 / Lemma 4 validation experiments.
type PhaseAccount struct {
	// Phase is the index of the phase that produced this account (the phase
	// that started with the previous snapshot and ended with this one).
	Phase int
	// DeltaPhi is the true potential change Φ(f) − Φ(f̂) over the phase.
	DeltaPhi float64
	// VirtualGain is V(f̂,f) = Σ_e ℓ_e(f̂)·(f_e − f̂_e), the gain the agents
	// "see" on the frozen board (Eq. 8).
	VirtualGain float64
	// ErrorSum is Σ_e U_e (Eq. 7).
	ErrorSum float64
}

// Lemma3Residual returns ΔΦ − (ΣU + V), which Lemma 3 proves to be zero.
func (a PhaseAccount) Lemma3Residual() float64 {
	return a.DeltaPhi - (a.ErrorSum + a.VirtualGain)
}

// Lemma4Holds reports whether ΔΦ ≤ ½·V + tol, the guarantee of Lemma 4 for
// α-smooth policies run at a safe update period.
func (a PhaseAccount) Lemma4Holds(tol float64) bool {
	return a.DeltaPhi <= 0.5*a.VirtualGain+tol
}

// Accountant is an Observer that accumulates PhaseAccounts across a run.
// Attach it to a run (compose it with other observers through
// MultiObserver); after the run Accounts holds one entry per completed
// phase transition. It never stops the run.
//
// The Eq. 7/8 terms are read off the accountant's own Evaluator and the
// edge state it kept from the previous phase start, so observing a phase
// allocates nothing beyond the Accounts append.
type Accountant struct {
	ev *flow.Evaluator
	// Edge flows f̂_e, latencies ℓ_e(f̂_e) and potential terms
	// ∫₀^{f̂_e} ℓ_e(u) du at the previous phase start.
	prevFlow, prevLat, prevInt []float64
	prevPhi                    float64
	havePrev                   bool
	// Accounts holds the per-phase bookkeeping in phase order.
	Accounts []PhaseAccount
}

// NewAccountant creates an accountant for the given instance.
func NewAccountant(inst *flow.Instance) *Accountant {
	nE := inst.Graph().NumEdges()
	return &Accountant{
		ev:       flow.NewEvaluator(inst, nil),
		prevFlow: make([]float64, nE),
		prevLat:  make([]float64, nE),
		prevInt:  make([]float64, nE),
	}
}

// ObservePhase books the transition from the previous phase start f̂ to
// this one f — U_e = ∫_{f̂_e}^{f_e} ℓ_e(u) du − ℓ_e(f̂_e)·(f_e − f̂_e)
// (Eq. 7) and V = Σ_e ℓ_e(f̂_e)·(f_e − f̂_e) (Eq. 8) — and snapshots the
// current edge state.
func (a *Accountant) ObservePhase(info PhaseInfo) bool {
	a.ev.Eval(info.Flow)
	fe, fi := a.ev.EdgeFlows(), a.ev.EdgeIntegrals()
	if a.havePrev {
		sumU, v := 0.0, 0.0
		for e := range fe {
			d := fe[e] - a.prevFlow[e]
			sumU += fi[e] - a.prevInt[e] - a.prevLat[e]*d
			v += a.prevLat[e] * d
		}
		a.Accounts = append(a.Accounts, PhaseAccount{
			Phase:       info.Index - 1,
			DeltaPhi:    info.Potential - a.prevPhi,
			VirtualGain: v,
			ErrorSum:    sumU,
		})
	}
	copy(a.prevFlow, fe)
	copy(a.prevLat, a.ev.EdgeLatencies())
	copy(a.prevInt, fi)
	a.prevPhi = info.Potential
	a.havePrev = true
	return false
}
