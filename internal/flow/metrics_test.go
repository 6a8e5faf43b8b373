package flow

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEdgeFlowsAndLatenciesPigou(t *testing.T) {
	inst := pigou(t)
	f := Vector{0.25, 0.75}
	fe := inst.EdgeFlows(f, nil)
	if !approx(fe[0], 0.25, 1e-15) || !approx(fe[1], 0.75, 1e-15) {
		t.Fatalf("edge flows = %v", fe)
	}
	le := inst.EdgeLatencies(fe, nil)
	if !approx(le[0], 0.25, 1e-15) || !approx(le[1], 1, 1e-15) {
		t.Fatalf("edge latencies = %v", le)
	}
	pl := inst.PathLatenciesFromEdges(le, nil)
	if !approx(pl[0], 0.25, 1e-15) || !approx(pl[1], 1, 1e-15) {
		t.Fatalf("path latencies = %v", pl)
	}
}

func TestEdgeFlowsBufferReuse(t *testing.T) {
	inst := pigou(t)
	buf := make([]float64, 2)
	buf[0] = 42 // stale content must be cleared
	fe := inst.EdgeFlows(Vector{1, 0}, buf)
	if &fe[0] != &buf[0] {
		t.Error("buffer not reused")
	}
	if !approx(fe[0], 1, 1e-15) || fe[1] != 0 {
		t.Errorf("edge flows = %v", fe)
	}
}

func TestEdgeFlowsSharedEdgeAcrossCommodities(t *testing.T) {
	inst := twoCommodity(t)
	// c0 has paths [e0,e1] (idx 0) and [e2] (idx 1); c1 path [e1] (idx 2).
	f := Vector{0.6, 0, 0.4}
	fe := inst.EdgeFlows(f, nil)
	if !approx(fe[1], 1.0, 1e-15) { // e1 carries both commodities
		t.Errorf("shared edge flow = %g, want 1", fe[1])
	}
}

func TestPotentialPigou(t *testing.T) {
	inst := pigou(t)
	// Φ(x on link1) = x²/2 + (1−x). Equilibrium at x=1: Φ=0.5.
	for _, x := range []float64{0, 0.3, 0.5, 1} {
		want := x*x/2 + (1 - x)
		got := inst.Potential(Vector{x, 1 - x})
		if !approx(got, want, 1e-12) {
			t.Errorf("Φ(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestMinAvgMaxLatency(t *testing.T) {
	inst := pigou(t)
	f := Vector{0.5, 0.5}
	pl := inst.PathLatencies(f)
	idx, lmin := inst.MinLatency(0, pl)
	if idx != 0 || !approx(lmin, 0.5, 1e-15) {
		t.Errorf("MinLatency = %d,%g", idx, lmin)
	}
	li := inst.AvgLatency(0, f, pl)
	if !approx(li, 0.75, 1e-15) {
		t.Errorf("AvgLatency = %g, want 0.75", li)
	}
	l := inst.OverallAvgLatency(f, pl)
	if !approx(l, 0.75, 1e-15) {
		t.Errorf("OverallAvgLatency = %g", l)
	}
	if m := inst.MaxUsedLatency(f, pl, 1e-12); !approx(m, 1, 1e-15) {
		t.Errorf("MaxUsedLatency = %g", m)
	}
	// With no flow on the constant link its latency must not count.
	if m := inst.MaxUsedLatency(Vector{1, 0}, inst.PathLatencies(Vector{1, 0}), 1e-12); !approx(m, 1, 1e-15) {
		t.Errorf("MaxUsedLatency = %g", m)
	}
}

func TestUnsatisfiedVolumes(t *testing.T) {
	inst := pigou(t)
	f := Vector{0.5, 0.5}
	pl := inst.PathLatencies(f) // 0.5 and 1.0; min 0.5, avg 0.75
	if v := inst.UnsatisfiedVolume(f, pl, 0.4); !approx(v, 0.5, 1e-15) {
		t.Errorf("UnsatisfiedVolume(0.4) = %g, want 0.5", v)
	}
	if v := inst.UnsatisfiedVolume(f, pl, 0.6); v != 0 {
		t.Errorf("UnsatisfiedVolume(0.6) = %g, want 0", v)
	}
	if v := inst.WeakUnsatisfiedVolume(f, pl, 0.2); !approx(v, 0.5, 1e-15) {
		t.Errorf("WeakUnsatisfiedVolume(0.2) = %g, want 0.5", v)
	}
	if v := inst.WeakUnsatisfiedVolume(f, pl, 0.3); v != 0 {
		t.Errorf("WeakUnsatisfiedVolume(0.3) = %g, want 0", v)
	}
	if !inst.AtApproxEquilibrium(f, pl, 0.6, 0.1) {
		t.Error("should be (0.6,0.1)-equilibrium")
	}
	if inst.AtApproxEquilibrium(f, pl, 0.4, 0.1) {
		t.Error("should not be (0.4,0.1)-equilibrium")
	}
	if !inst.AtWeakApproxEquilibrium(f, pl, 0.3, 0.0) {
		t.Error("should be weak (0.3,0)-equilibrium")
	}
}

func TestEveryStrictEquilibriumIsWeak(t *testing.T) {
	// Property from the paper: every (δ,ε)-equilibrium is a weak one, because
	// L_i >= ℓ^i_min pointwise.
	inst := braess(t)
	prop := func(a, b, c uint16) bool {
		x := float64(a%1000) + 1
		y := float64(b%1000) + 1
		z := float64(c%1000) + 1
		s := x + y + z
		f := Vector{x / s, y / s, z / s}
		pl := inst.PathLatencies(f)
		delta := 0.2
		strict := inst.UnsatisfiedVolume(f, pl, delta)
		weak := inst.WeakUnsatisfiedVolume(f, pl, delta)
		return weak <= strict+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAtWardropEquilibrium(t *testing.T) {
	inst := pigou(t)
	if !inst.AtWardropEquilibrium(Vector{1, 0}, 1e-9) {
		t.Error("all flow on the x-link is the Pigou equilibrium")
	}
	if inst.AtWardropEquilibrium(Vector{0.5, 0.5}, 1e-9) {
		t.Error("split flow is not a Pigou equilibrium")
	}
	// Braess equilibrium: everything through the bridge path s->a->b->t.
	binst := braess(t)
	var bridgeIdx = -1
	for g := 0; g < binst.NumPaths(); g++ {
		if binst.Path(g).Len() == 3 {
			bridgeIdx = g
		}
	}
	f := make(Vector, 3)
	f[bridgeIdx] = 1
	if !binst.AtWardropEquilibrium(f, 1e-9) {
		t.Error("all-bridge flow should be the Braess equilibrium")
	}
}

func TestBestResponse(t *testing.T) {
	inst := pigou(t)
	pl := inst.PathLatencies(Vector{0.2, 0.8}) // lat 0.2 vs 1 -> path 0
	b := inst.BestResponse(pl)
	if !approx(b[0], 1, 1e-15) || b[1] != 0 {
		t.Errorf("BestResponse = %v", b)
	}
	// Tie: lowest index wins.
	pl2 := []float64{1, 1}
	b2 := inst.BestResponse(pl2)
	if !approx(b2[0], 1, 1e-15) {
		t.Errorf("tie-break BestResponse = %v", b2)
	}
}

func TestVirtualGainAndErrorTermsLemma3(t *testing.T) {
	// Lemma 3: Φ(f) − Φ(f̂) = Σ_e U_e + V(f̂,f).
	inst := braess(t)
	prop := func(a, b, c, d, e, g uint16) bool {
		mk := func(x, y, z uint16) Vector {
			fx := float64(x%997) + 1
			fy := float64(y%997) + 1
			fz := float64(z%997) + 1
			s := fx + fy + fz
			return Vector{fx / s, fy / s, fz / s}
		}
		fHat := mk(a, b, c)
		f := mk(d, e, g)
		lhs := inst.Potential(f) - inst.Potential(fHat)
		u := inst.ErrorTerms(fHat, f)
		sumU := 0.0
		for _, x := range u {
			sumU += x
		}
		rhs := sumU + inst.VirtualGain(fHat, f)
		return approx(lhs, rhs, 1e-10)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGapClamps(t *testing.T) {
	if Gap(1.0, 2.0) != 0 {
		t.Error("negative gap should clamp to 0")
	}
	if !approx(Gap(2.0, 0.5), 1.5, 1e-15) {
		t.Error("gap wrong")
	}
}

func TestPathLatenciesAllocates(t *testing.T) {
	inst := pigou(t)
	pl := inst.PathLatencies(Vector{1, 0})
	if len(pl) != 2 || !approx(pl[0], 1, 1e-15) {
		t.Errorf("PathLatencies = %v", pl)
	}
}

var sinkPotential float64

func BenchmarkPotentialBraess(b *testing.B) {
	g := braessBench()
	f := g.UniformFlow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkPotential = g.Potential(f)
	}
}

func braessBench() *Instance {
	// Benchmark helper without *testing.T.
	t := &testing.T{}
	return braess(t)
}

func TestOverallAvgMatchesWeightedCommodityAvg(t *testing.T) {
	inst := twoCommodity(t)
	f := Vector{0.3, 0.3, 0.4}
	pl := inst.PathLatencies(f)
	want := 0.6*inst.AvgLatency(0, f, pl) + 0.4*inst.AvgLatency(1, f, pl)
	if got := inst.OverallAvgLatency(f, pl); !approx(got, want, 1e-12) {
		t.Errorf("OverallAvgLatency = %g, want %g", got, want)
	}
}

func TestVirtualGainNegativeForImprovingMove(t *testing.T) {
	// Moving flow from the high-latency constant link to the cheaper x-link
	// (as seen on a fresh board) must yield negative virtual gain.
	inst := pigou(t)
	fHat := Vector{0.2, 0.8} // board: lat 0.2 vs 1
	f := Vector{0.4, 0.6}    // shift 0.2 towards the cheap link
	if v := inst.VirtualGain(fHat, f); v >= 0 {
		t.Errorf("VirtualGain = %g, want negative", v)
	}
}

func TestErrorTermsZeroWhenFlowUnchanged(t *testing.T) {
	inst := braess(t)
	f := inst.UniformFlow()
	for e, u := range inst.ErrorTerms(f, f) {
		if math.Abs(u) > 1e-15 {
			t.Errorf("U[%d] = %g, want 0", e, u)
		}
	}
}
