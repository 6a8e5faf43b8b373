package flow

// The naive reference evaluator: one allocating method per quantity, each a
// direct transcription of its definition. It is the differential-testing
// oracle the compiled kernel (kernel.go) must reproduce bit for bit, and it
// lives in a test file so production code has exactly one evaluation path.
// Test files of package flow compile into the package under test, so the
// external flow_test files reach these methods too.

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
