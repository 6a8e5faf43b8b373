package flow

import (
	"math"
)

// EdgeFlows computes per-edge flows f_e = Σ_{P∋e} f_P. If out is non-nil and
// correctly sized it is reused, otherwise a new slice is allocated.
func (in *Instance) EdgeFlows(f Vector, out []float64) []float64 {
	if out == nil || len(out) != in.g.NumEdges() {
		out = make([]float64, in.g.NumEdges())
	} else {
		for e := range out {
			out[e] = 0
		}
	}
	for i := range in.commodities {
		lo, hi := in.CommodityRange(i)
		for g := lo; g < hi; g++ {
			fp := f[g]
			if fp == 0 {
				continue
			}
			for _, e := range in.paths[i][g-lo].Edges {
				out[e] += fp
			}
		}
	}
	return out
}

// EdgeLatencies evaluates ℓ_e(f_e) for the given edge flows.
func (in *Instance) EdgeLatencies(edgeFlows []float64, out []float64) []float64 {
	if out == nil || len(out) != len(edgeFlows) {
		out = make([]float64, len(edgeFlows))
	}
	for e, fe := range edgeFlows {
		out[e] = in.latencies[e].Value(fe)
	}
	return out
}

// PathLatenciesFromEdges computes ℓ_P = Σ_{e∈P} ℓ_e for all paths given edge
// latencies.
func (in *Instance) PathLatenciesFromEdges(edgeLat []float64, out []float64) []float64 {
	if out == nil || len(out) != in.totalPaths {
		out = make([]float64, in.totalPaths)
	}
	for i := range in.commodities {
		lo, hi := in.CommodityRange(i)
		for g := lo; g < hi; g++ {
			sum := 0.0
			for _, e := range in.paths[i][g-lo].Edges {
				sum += edgeLat[e]
			}
			out[g] = sum
		}
	}
	return out
}

// PathLatencies computes all path latencies induced by flow f (allocating
// scratch buffers; use the FromEdges variants in hot loops).
func (in *Instance) PathLatencies(f Vector) []float64 {
	fe := in.EdgeFlows(f, nil)
	le := in.EdgeLatencies(fe, nil)
	return in.PathLatenciesFromEdges(le, nil)
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
// Φ(f) = Σ_e ∫₀^{f_e} ℓ_e(u) du.
func (in *Instance) Potential(f Vector) float64 {
	fe := in.EdgeFlows(f, nil)
	return in.PotentialFromEdges(fe)
}

// PotentialFromEdges evaluates Φ given precomputed edge flows.
func (in *Instance) PotentialFromEdges(edgeFlows []float64) float64 {
	phi := 0.0
	for e, fe := range edgeFlows {
		phi += in.latencies[e].Integral(fe)
	}
	return phi
}

// VirtualGain computes the paper's virtual potential gain (Eq. 8) of a phase
// moving the flow from fHat to f while the board shows latencies ℓ(f̂):
// V(f̂,f) = Σ_e ℓ_e(f̂_e)·(f_e − f̂_e).
func (in *Instance) VirtualGain(fHat, f Vector) float64 {
	feHat := in.EdgeFlows(fHat, nil)
	fe := in.EdgeFlows(f, nil)
	leHat := in.EdgeLatencies(feHat, nil)
	v := 0.0
	for e := range fe {
		v += leHat[e] * (fe[e] - feHat[e])
	}
	return v
}

// ErrorTerms computes the paper's per-edge error terms (Eq. 7)
// U_e = ∫_{f̂_e}^{f_e} (ℓ_e(u) − ℓ_e(f̂_e)) du, which together with the
// virtual gain reconstruct the true potential change (Lemma 3).
func (in *Instance) ErrorTerms(fHat, f Vector) []float64 {
	feHat := in.EdgeFlows(fHat, nil)
	fe := in.EdgeFlows(f, nil)
	out := make([]float64, len(fe))
	for e := range fe {
		lHat := in.latencies[e].Value(feHat[e])
		out[e] = in.latencies[e].Integral(fe[e]) - in.latencies[e].Integral(feHat[e]) -
			lHat*(fe[e]-feHat[e])
	}
	return out
}

// BestResponse returns the all-or-nothing flow that routes each commodity
// entirely on its minimum-latency path under the given path latencies, with
// ties broken towards the lowest global index.
func (in *Instance) BestResponse(pathLat []float64) Vector {
	b := make(Vector, in.totalPaths)
	for i := range in.commodities {
		idx, _ := in.MinLatency(i, pathLat)
		b[idx] = in.commodities[i].Demand
	}
	return b
}

// Beta is a convenience alias for MaxSlope matching the paper's notation.
func (in *Instance) Beta() float64 { return in.MaxSlope() }

// Gap returns Φ(f) − Φ*, clamped at 0 to absorb round-off when f is at the
// optimum.
func Gap(phi, phiStar float64) float64 {
	return math.Max(0, phi-phiStar)
}
