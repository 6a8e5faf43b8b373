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
type Accountant struct {
	inst     *flow.Instance
	prev     flow.Vector
	prevPhi  float64
	havePrev bool
	// Accounts holds the per-phase bookkeeping in phase order.
	Accounts []PhaseAccount
}

// NewAccountant creates an accountant for the given instance.
func NewAccountant(inst *flow.Instance) *Accountant {
	return &Accountant{inst: inst}
}

// ObservePhase books the transition from the previous phase start to this
// one and snapshots the current state.
func (a *Accountant) ObservePhase(info PhaseInfo) bool {
	if a.havePrev {
		u := a.inst.ErrorTerms(a.prev, info.Flow)
		sumU := 0.0
		for _, x := range u {
			sumU += x
		}
		a.Accounts = append(a.Accounts, PhaseAccount{
			Phase:       info.Index - 1,
			DeltaPhi:    info.Potential - a.prevPhi,
			VirtualGain: a.inst.VirtualGain(a.prev, info.Flow),
			ErrorSum:    sumU,
		})
	}
	a.prev = info.Flow.Clone()
	a.prevPhi = info.Potential
	a.havePrev = true
	return false
}
