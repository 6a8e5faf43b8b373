package topo

import (
	"errors"
	"math"
	"testing"

	"wardrop/internal/latency"
)

func TestParallelLinks(t *testing.T) {
	inst, err := ParallelLinks([]latency.Function{
		latency.Linear{Slope: 1}, latency.Constant{C: 1}, latency.Constant{C: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumPaths() != 3 || inst.MaxPathLen() != 1 {
		t.Errorf("paths=%d D=%d", inst.NumPaths(), inst.MaxPathLen())
	}
	if _, err := ParallelLinks([]latency.Function{latency.Constant{C: 1}}); !errors.Is(err, ErrBadParam) {
		t.Errorf("single link error = %v", err)
	}
}

func TestLinearParallelLinks(t *testing.T) {
	for _, m := range []int{2, 8, 32} {
		inst, err := LinearParallelLinks(m)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if inst.NumPaths() != m {
			t.Errorf("m=%d: paths=%d", m, inst.NumPaths())
		}
		if inst.Beta() >= 2 || inst.Beta() < 1 {
			t.Errorf("m=%d: beta=%g outside [1,2)", m, inst.Beta())
		}
	}
	if _, err := LinearParallelLinks(1); !errors.Is(err, ErrBadParam) {
		t.Error("m=1 accepted")
	}
}

func TestTwoLinkKink(t *testing.T) {
	inst, err := TwoLinkKink(4)
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumPaths() != 2 {
		t.Fatalf("paths = %d", inst.NumPaths())
	}
	if math.Abs(inst.Beta()-4) > 1e-12 {
		t.Errorf("beta = %g, want 4", inst.Beta())
	}
	// Split evenly: both latencies zero -> Wardrop equilibrium.
	if !inst.AtWardropEquilibrium(inst.UniformFlow(), 1e-9) {
		t.Error("even split should be the kink equilibrium")
	}
	if _, err := TwoLinkKink(0); !errors.Is(err, ErrBadParam) {
		t.Error("beta=0 accepted")
	}
}

func TestPigou(t *testing.T) {
	inst, err := Pigou()
	if err != nil {
		t.Fatal(err)
	}
	f := make([]float64, 2)
	f[0] = 1
	if !inst.AtWardropEquilibrium(f, 1e-9) {
		t.Error("all-on-link-1 should be the Pigou equilibrium")
	}
	if phi := inst.Potential(f); math.Abs(phi-0.5) > 1e-12 {
		t.Errorf("Φ* = %g, want 0.5", phi)
	}
}

func TestBraess(t *testing.T) {
	inst, err := Braess()
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumPaths() != 3 {
		t.Fatalf("paths = %d, want 3", inst.NumPaths())
	}
	if inst.MaxPathLen() != 3 {
		t.Errorf("D = %d, want 3", inst.MaxPathLen())
	}
	// Equilibrium: all flow on the 3-edge bridge path.
	f := make([]float64, 3)
	for g := 0; g < 3; g++ {
		if inst.Path(g).Len() == 3 {
			f[g] = 1
		}
	}
	if !inst.AtWardropEquilibrium(f, 1e-9) {
		t.Error("all-bridge flow should be the Braess equilibrium")
	}
	pl := inst.PathLatencies(f)
	for g, l := range pl {
		if math.Abs(l-2) > 1e-12 {
			t.Errorf("path %d latency %g, want 2", g, l)
		}
	}
}

func TestGrid(t *testing.T) {
	inst, err := Grid(3)
	if err != nil {
		t.Fatal(err)
	}
	// Monotone lattice paths in a 3x3 grid: C(4,2) = 6.
	if inst.NumPaths() != 6 {
		t.Errorf("paths = %d, want 6", inst.NumPaths())
	}
	if inst.MaxPathLen() != 4 {
		t.Errorf("D = %d, want 4", inst.MaxPathLen())
	}
	if err := inst.Feasible(inst.UniformFlow(), 1e-9); err != nil {
		t.Errorf("uniform flow infeasible: %v", err)
	}
	if _, err := Grid(1); !errors.Is(err, ErrBadParam) {
		t.Error("n=1 accepted")
	}
}

func TestLayeredRandomDeterministic(t *testing.T) {
	a, err := LayeredRandom(2, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LayeredRandom(2, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumPaths() != b.NumPaths() {
		t.Fatal("same seed, different path count")
	}
	// Same seed must give identical latencies.
	fa := a.PathLatencies(a.UniformFlow())
	fb := b.PathLatencies(b.UniformFlow())
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("same seed, different latency at %d: %g vs %g", i, fa[i], fb[i])
		}
	}
	c, err := LayeredRandom(2, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	fc := c.PathLatencies(c.UniformFlow())
	same := true
	for i := range fa {
		if fa[i] != fc[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical instances")
	}
	// 2 hidden layers of width 3: paths = 3*3 = 9, length 3.
	if a.NumPaths() != 9 || a.MaxPathLen() != 3 {
		t.Errorf("paths=%d D=%d, want 9, 3", a.NumPaths(), a.MaxPathLen())
	}
	if _, err := LayeredRandom(0, 3, 1); !errors.Is(err, ErrBadParam) {
		t.Error("layers=0 accepted")
	}
}

func TestTwoCommodityOverlap(t *testing.T) {
	inst, err := TwoCommodityOverlap()
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumCommodities() != 2 || inst.NumPaths() != 3 {
		t.Errorf("commodities=%d paths=%d", inst.NumCommodities(), inst.NumPaths())
	}
	if math.Abs(inst.TotalDemand()-1) > 1e-12 {
		t.Errorf("total demand = %g", inst.TotalDemand())
	}
}

func TestMultiCommodityParallel(t *testing.T) {
	inst, err := MultiCommodityParallel(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumCommodities() != 3 {
		t.Fatalf("commodities = %d", inst.NumCommodities())
	}
	// Each commodity: m paths of length 2.
	for i := 0; i < 3; i++ {
		if inst.NumCommodityPaths(i) != 4 {
			t.Errorf("commodity %d has %d paths, want 4", i, inst.NumCommodityPaths(i))
		}
	}
	if inst.MaxPathLen() != 2 {
		t.Errorf("D = %d, want 2", inst.MaxPathLen())
	}
	if math.Abs(inst.TotalDemand()-1) > 1e-12 {
		t.Errorf("total demand = %g, want 1", inst.TotalDemand())
	}
	if err := inst.Feasible(inst.UniformFlow(), 1e-9); err != nil {
		t.Errorf("uniform flow infeasible: %v", err)
	}
	if _, err := MultiCommodityParallel(0, 4); !errors.Is(err, ErrBadParam) {
		t.Error("k=0 accepted")
	}
	if _, err := MultiCommodityParallel(2, 1); !errors.Is(err, ErrBadParam) {
		t.Error("m=1 accepted")
	}
}
