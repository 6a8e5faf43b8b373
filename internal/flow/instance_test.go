package flow

import (
	"errors"
	"math"
	"testing"

	"wardrop/internal/graph"
	"wardrop/internal/latency"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// pigou builds the two-parallel-link Pigou network: ℓ1(x)=x, ℓ2(x)=1.
func pigou(t *testing.T) *Instance {
	t.Helper()
	g := graph.New()
	s := g.MustAddNode("s")
	d := g.MustAddNode("t")
	g.MustAddEdge(s, d)
	g.MustAddEdge(s, d)
	inst, err := NewInstance(g,
		[]latency.Function{latency.Linear{Slope: 1}, latency.Constant{C: 1}},
		[]Commodity{{Source: s, Sink: d, Demand: 1}})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

// braess builds the classic Braess network with the bridge.
func braess(t *testing.T) *Instance {
	t.Helper()
	g := graph.New()
	s := g.MustAddNode("s")
	a := g.MustAddNode("a")
	b := g.MustAddNode("b")
	d := g.MustAddNode("t")
	eSA := g.MustAddEdge(s, a) // x
	eSB := g.MustAddEdge(s, b) // 1
	eAT := g.MustAddEdge(a, d) // 1
	eBT := g.MustAddEdge(b, d) // x
	eAB := g.MustAddEdge(a, b) // 0
	lats := make([]latency.Function, 5)
	lats[eSA] = latency.Linear{Slope: 1}
	lats[eSB] = latency.Constant{C: 1}
	lats[eAT] = latency.Constant{C: 1}
	lats[eBT] = latency.Linear{Slope: 1}
	lats[eAB] = latency.Constant{C: 0}
	inst, err := NewInstance(g, lats, []Commodity{{Source: s, Sink: d, Demand: 1}})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

// twoCommodity builds a 3-node network with two overlapping commodities.
func twoCommodity(t *testing.T) *Instance {
	t.Helper()
	g := graph.New()
	a := g.MustAddNode("a")
	b := g.MustAddNode("b")
	c := g.MustAddNode("c")
	g.MustAddEdge(a, b) // e0
	g.MustAddEdge(b, c) // e1
	g.MustAddEdge(a, c) // e2
	lats := []latency.Function{
		latency.Linear{Slope: 1},
		latency.Linear{Slope: 1},
		latency.Linear{Slope: 2, Offset: 0.1},
	}
	inst, err := NewInstance(g, lats, []Commodity{
		{Source: a, Sink: c, Demand: 0.6},
		{Source: b, Sink: c, Demand: 0.4},
	})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

func TestNewInstanceBasics(t *testing.T) {
	inst := pigou(t)
	if inst.NumCommodities() != 1 || inst.NumPaths() != 2 {
		t.Fatalf("commodities=%d paths=%d", inst.NumCommodities(), inst.NumPaths())
	}
	if inst.MaxPathLen() != 1 {
		t.Errorf("D = %d, want 1", inst.MaxPathLen())
	}
	if !approx(inst.Beta(), 1, 1e-15) {
		t.Errorf("beta = %g, want 1", inst.Beta())
	}
	// lmax = max(ℓ1(1), ℓ2(1)) = max(1,1) = 1
	if !approx(inst.LMax(), 1, 1e-15) {
		t.Errorf("lmax = %g, want 1", inst.LMax())
	}
	if !approx(inst.TotalDemand(), 1, 1e-15) {
		t.Errorf("demand = %g", inst.TotalDemand())
	}
	if inst.Beta() != inst.maxSlope {
		t.Error("Beta alias mismatch")
	}
}

func TestNewInstanceErrors(t *testing.T) {
	g := graph.New()
	s := g.MustAddNode("s")
	d := g.MustAddNode("t")
	g.MustAddEdge(s, d)
	lats := []latency.Function{latency.Constant{C: 1}}

	if _, err := NewInstance(g, nil, []Commodity{{Source: s, Sink: d, Demand: 1}}); !errors.Is(err, ErrLatencyCount) {
		t.Errorf("latency count error = %v", err)
	}
	if _, err := NewInstance(g, lats, nil); !errors.Is(err, ErrNoCommodities) {
		t.Errorf("no commodities error = %v", err)
	}
	if _, err := NewInstance(g, lats, []Commodity{{Source: s, Sink: d, Demand: 0}}); !errors.Is(err, ErrBadDemand) {
		t.Errorf("zero demand error = %v", err)
	}
	if _, err := NewInstance(g, lats, []Commodity{{Source: s, Sink: d, Demand: math.NaN()}}); !errors.Is(err, ErrBadDemand) {
		t.Errorf("NaN demand error = %v", err)
	}
	if _, err := NewInstance(g, lats, []Commodity{{Source: d, Sink: s, Demand: 1}}); !errors.Is(err, graph.ErrNoPath) {
		t.Errorf("no-path error = %v", err)
	}
}

func TestWithMaxPathLen(t *testing.T) {
	g := graph.New()
	s := g.MustAddNode("s")
	a := g.MustAddNode("a")
	d := g.MustAddNode("t")
	g.MustAddEdge(s, d)
	g.MustAddEdge(s, a)
	g.MustAddEdge(a, d)
	lats := []latency.Function{latency.Constant{C: 1}, latency.Constant{C: 1}, latency.Constant{C: 1}}
	inst, err := NewInstance(g, lats, []Commodity{{Source: s, Sink: d, Demand: 1}}, WithMaxPathLen(1))
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	if inst.NumPaths() != 1 {
		t.Errorf("bounded enumeration found %d paths, want 1", inst.NumPaths())
	}
}

func TestGlobalIndexing(t *testing.T) {
	inst := twoCommodity(t)
	// Commodity 0 (a->c): paths e0e1 and e2 => 2 paths. Commodity 1: 1 path.
	if inst.NumPaths() != 3 {
		t.Fatalf("NumPaths = %d, want 3", inst.NumPaths())
	}
	lo, hi := inst.CommodityRange(0)
	if lo != 0 || hi != 2 {
		t.Errorf("range c0 = [%d,%d), want [0,2)", lo, hi)
	}
	lo, hi = inst.CommodityRange(1)
	if lo != 2 || hi != 3 {
		t.Errorf("range c1 = [%d,%d), want [2,3)", lo, hi)
	}
	if inst.GlobalIndex(1, 0) != 2 {
		t.Errorf("GlobalIndex(1,0) = %d", inst.GlobalIndex(1, 0))
	}
	if inst.CommodityOf(0) != 0 || inst.CommodityOf(2) != 1 {
		t.Error("CommodityOf wrong")
	}
	if inst.Path(2).Len() != 1 {
		t.Errorf("Path(2) = %v", inst.Path(2))
	}
	if inst.NumCommodityPaths(0) != 2 || inst.NumCommodityPaths(1) != 1 {
		t.Error("NumCommodityPaths wrong")
	}
}

func TestUniformAndSinglePathFlow(t *testing.T) {
	inst := braess(t)
	f := inst.UniformFlow()
	if err := inst.Feasible(f, 1e-12); err != nil {
		t.Errorf("uniform flow infeasible: %v", err)
	}
	for _, x := range f {
		if !approx(x, 1.0/3, 1e-12) {
			t.Errorf("uniform share = %g", x)
		}
	}
	sp := inst.SinglePathFlow(0)
	if err := inst.Feasible(sp, 1e-12); err != nil {
		t.Errorf("single-path flow infeasible: %v", err)
	}
	sum := 0.0
	for _, x := range sp {
		sum += x
	}
	if !approx(sum, 1, 1e-12) {
		t.Errorf("single path total = %g", sum)
	}
	// Clamping beyond path count.
	sp2 := inst.SinglePathFlow(99)
	if err := inst.Feasible(sp2, 1e-12); err != nil {
		t.Errorf("clamped single-path flow infeasible: %v", err)
	}
}

func TestFeasibleErrors(t *testing.T) {
	inst := pigou(t)
	if err := inst.Feasible(Vector{0.5}, 1e-9); !errors.Is(err, ErrDimension) {
		t.Errorf("dimension error = %v", err)
	}
	if err := inst.Feasible(Vector{-0.1, 1.1}, 1e-9); !errors.Is(err, ErrNegativeFlow) {
		t.Errorf("negative error = %v", err)
	}
	if err := inst.Feasible(Vector{0.2, 0.2}, 1e-9); !errors.Is(err, ErrDemandMismatch) {
		t.Errorf("demand error = %v", err)
	}
	if err := inst.Feasible(Vector{math.NaN(), 1}, 1e-9); !errors.Is(err, ErrNegativeFlow) {
		t.Errorf("NaN error = %v", err)
	}
}

func TestProjectRepairsRoundoff(t *testing.T) {
	inst := pigou(t)
	f := Vector{-1e-12, 1.0000000001}
	inst.Project(f, 1e-9)
	if err := inst.Feasible(f, 1e-12); err != nil {
		t.Errorf("projected flow infeasible: %v", err)
	}
	if f[0] != 0 {
		t.Errorf("tiny negative not clamped: %g", f[0])
	}
}

func TestVectorHelpers(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Error("Clone aliases memory")
	}
	if d := v.MaxAbsDiff(Vector{1, 2, 5}); !approx(d, 2, 1e-15) {
		t.Errorf("MaxAbsDiff = %g", d)
	}
	if !math.IsNaN(v.MaxAbsDiff(Vector{1})) {
		t.Error("length mismatch should yield NaN")
	}
}

func TestWithKShortestPaths(t *testing.T) {
	// Braess graph: restricting to k=2 keeps the two cheapest free-flow
	// paths (the bridge path has free-flow cost 0+0+0, the others 1).
	g := graph.New()
	s := g.MustAddNode("s")
	a := g.MustAddNode("a")
	b := g.MustAddNode("b")
	d := g.MustAddNode("t")
	lats := make([]latency.Function, 5)
	lats[g.MustAddEdge(s, a)] = latency.Linear{Slope: 1}
	lats[g.MustAddEdge(s, b)] = latency.Constant{C: 1}
	lats[g.MustAddEdge(a, d)] = latency.Constant{C: 1}
	lats[g.MustAddEdge(b, d)] = latency.Linear{Slope: 1}
	lats[g.MustAddEdge(a, b)] = latency.Constant{C: 0}
	comms := []Commodity{{Source: s, Sink: d, Demand: 1}}

	full, err := NewInstance(g, lats, comms)
	if err != nil {
		t.Fatal(err)
	}
	if full.NumPaths() != 3 {
		t.Fatalf("full enumeration found %d paths", full.NumPaths())
	}
	restricted, err := NewInstance(g, lats, comms, WithKShortestPaths(2))
	if err != nil {
		t.Fatal(err)
	}
	if restricted.NumPaths() != 2 {
		t.Fatalf("k=2 restriction found %d paths", restricted.NumPaths())
	}
	// The cheapest free-flow path (the bridge, cost 0) must be included.
	foundBridge := false
	for gIdx := 0; gIdx < restricted.NumPaths(); gIdx++ {
		if restricted.Path(gIdx).Len() == 3 {
			foundBridge = true
		}
	}
	if !foundBridge {
		t.Error("k-shortest restriction dropped the cheapest path")
	}
	// Oversized k degrades to full enumeration.
	over, err := NewInstance(g, lats, comms, WithKShortestPaths(99))
	if err != nil {
		t.Fatal(err)
	}
	if over.NumPaths() != 3 {
		t.Errorf("k=99 found %d paths, want 3", over.NumPaths())
	}
}
