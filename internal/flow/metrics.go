package flow

import (
	"math"
)

// PathLatencies computes all path latencies induced by flow f with one
// full Evaluator pass (allocating a private evaluator; engines and other hot
// loops hold their own Evaluator instead).
func (in *Instance) PathLatencies(f Vector) []float64 {
	ev := NewEvaluator(in, nil)
	ev.Eval(f)
	return ev.PathLatencies()
}

// MinLatency returns the minimum path latency ℓ^i_min of commodity i and the
// global index of a path attaining it.
func (in *Instance) MinLatency(i int, pathLat []float64) (minIdx int, minVal float64) {
	lo, hi := in.CommodityRange(i)
	minIdx, minVal = lo, pathLat[lo]
	for g := lo + 1; g < hi; g++ {
		if pathLat[g] < minVal {
			minIdx, minVal = g, pathLat[g]
		}
	}
	return minIdx, minVal
}

// AvgLatency returns commodity i's average latency
// L_i = Σ_P (f_P / r_i)·ℓ_P.
func (in *Instance) AvgLatency(i int, f Vector, pathLat []float64) float64 {
	lo, hi := in.CommodityRange(i)
	sum := 0.0
	for g := lo; g < hi; g++ {
		sum += f[g] * pathLat[g]
	}
	return sum / in.commodities[i].Demand
}

// OverallAvgLatency returns L = Σ_P f_P·ℓ_P (the paper normalises Σr_i = 1;
// for other normalisations this is demand-weighted total latency).
func (in *Instance) OverallAvgLatency(f Vector, pathLat []float64) float64 {
	sum := 0.0
	for g := range f {
		sum += f[g] * pathLat[g]
	}
	return sum
}

// MaxUsedLatency returns the maximum latency sustained by any positive amount
// of flow (threshold: f_P > tol).
func (in *Instance) MaxUsedLatency(f Vector, pathLat []float64, tol float64) float64 {
	m := 0.0
	for g := range f {
		if f[g] > tol && pathLat[g] > m {
			m = pathLat[g]
		}
	}
	return m
}

// UnsatisfiedVolume returns the total volume of δ-unsatisfied agents
// (Definition 3): flow on paths P with ℓ_P > ℓ^i_min + δ.
func (in *Instance) UnsatisfiedVolume(f Vector, pathLat []float64, delta float64) float64 {
	vol := 0.0
	for i := range in.commodities {
		lo, hi := in.CommodityRange(i)
		_, lmin := in.MinLatency(i, pathLat)
		for g := lo; g < hi; g++ {
			if pathLat[g] > lmin+delta {
				vol += f[g]
			}
		}
	}
	return vol
}

// WeakUnsatisfiedVolume returns the total volume of weakly δ-unsatisfied
// agents (Definition 4): flow on paths P with ℓ_P > L_i + δ.
func (in *Instance) WeakUnsatisfiedVolume(f Vector, pathLat []float64, delta float64) float64 {
	vol := 0.0
	for i := range in.commodities {
		lo, hi := in.CommodityRange(i)
		li := in.AvgLatency(i, f, pathLat)
		for g := lo; g < hi; g++ {
			if pathLat[g] > li+delta {
				vol += f[g]
			}
		}
	}
	return vol
}

// AtApproxEquilibrium reports whether f is at a (δ,ε)-equilibrium: the volume
// of δ-unsatisfied agents is at most ε.
func (in *Instance) AtApproxEquilibrium(f Vector, pathLat []float64, delta, eps float64) bool {
	return in.UnsatisfiedVolume(f, pathLat, delta) <= eps
}

// AtWeakApproxEquilibrium reports whether f is at a weak (δ,ε)-equilibrium.
func (in *Instance) AtWeakApproxEquilibrium(f Vector, pathLat []float64, delta, eps float64) bool {
	return in.WeakUnsatisfiedVolume(f, pathLat, delta) <= eps
}

// AtWardropEquilibrium reports whether f satisfies Definition 1 within
// tolerance: every used path's latency is within tol of its commodity's
// minimum.
func (in *Instance) AtWardropEquilibrium(f Vector, tol float64) bool {
	pathLat := in.PathLatencies(f)
	for i := range in.commodities {
		lo, hi := in.CommodityRange(i)
		_, lmin := in.MinLatency(i, pathLat)
		for g := lo; g < hi; g++ {
			if f[g] > tol && pathLat[g] > lmin+tol {
				return false
			}
		}
	}
	return true
}

// Potential evaluates the Beckmann–McGuire–Winsten potential
// Φ(f) = Σ_e ∫₀^{f_e} ℓ_e(u) du with one full Evaluator pass.
func (in *Instance) Potential(f Vector) float64 {
	ev := NewEvaluator(in, nil)
	ev.Eval(f)
	return ev.Potential()
}

// Gap returns Φ(f) − Φ*, clamped at 0 to absorb round-off when f is at the
// optimum.
func Gap(phi, phiStar float64) float64 {
	return math.Max(0, phi-phiStar)
}
