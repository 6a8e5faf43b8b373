package solver

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/graph"
	"wardrop/internal/latency"
	"wardrop/internal/topo"
)

// The goldens below pin the exact bits of the Frank–Wolfe solver's output:
// the equilibrium flow (as a SHA-256 digest of its float64 bits), potential,
// relative gap and iteration count on every instance, and the social optimum
// and price of anarchy on the instances whose strategy spaces are full path
// enumerations. Any change to the iterates, the line search or the final
// evaluation moves them.

type solveGolden struct {
	flow   string // flowDigest(Result.Flow)
	phi    uint64 // math.Float64bits(Result.Potential)
	relGap uint64 // math.Float64bits(Result.RelGap)
	iters  int
}

type poaGolden struct {
	opt                  solveGolden
	poa, eqCost, optCost uint64 // math.Float64bits of PriceOfAnarchy's results
}

// flowDigest hashes a flow vector's float64 bits in index order.
func flowDigest(f flow.Vector) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range f {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestResult(res *Result) solveGolden {
	return solveGolden{
		flow:   flowDigest(res.Flow),
		phi:    math.Float64bits(res.Potential),
		relGap: math.Float64bits(res.RelGap),
		iters:  res.Iters,
	}
}

// goldenInstance is one solver golden workload; full marks a full path
// enumeration, where the social optimum is pinned too.
type goldenInstance struct {
	name string
	inst *flow.Instance
	opts Options
	full bool
}

func goldenInstances(t *testing.T) []goldenInstance {
	t.Helper()
	must := func(inst *flow.Instance, err error) *flow.Instance {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	braess := must(topo.Braess())
	// A constant toll of 0.1 on every Braess edge, derived so the path sets
	// and incidence are shared with the base instance.
	tolls := make([]latency.Function, braess.Graph().NumEdges())
	for e := range tolls {
		tolls[e] = latency.Sum{A: braess.Latency(graph.EdgeID(e)), B: latency.Constant{C: 0.1}}
	}
	return []goldenInstance{
		{"pigou", must(topo.Pigou()), Options{}, true},
		{"braess", braess, Options{}, true},
		{"links(8)", must(topo.LinearParallelLinks(8)), Options{}, true},
		{"grid(4)", must(topo.Grid(4)), Options{}, true},
		{"layered(3,4,7)", must(topo.LayeredRandom(3, 4, 7)), Options{}, true},
		{"sparse-random(600)", must(topo.SparseRandom(600, 4, 8, 8, 0x5ca1e)), Options{MaxIters: 300, RelGapTol: 1e-9}, false},
		{"braess+toll", must(braess.Derive(tolls, nil)), Options{}, true},
	}
}

var equilibriumGoldens = map[string]solveGolden{
	"pigou":              {"3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65", 0x3fe0000000000000, 0x0, 2},
	"braess":             {"17550ce418055ff4cd54b803e704300eac4212c3edcef00f92f1e6e506a5b069", 0x3ff0000000000000, 0x0, 5},
	"links(8)":           {"2f4cb79b8466874670e81b21a9e909b8e5457f2c8d2f261819ffc9f686f0c29b", 0x3fd22e5343abd3cb, 0x3e1109370c567b1b, 15},
	"grid(4)":            {"c1fccc004208239e9a3547e5bdbfbed6f8806228af608b2e37afa92408c4c17f", 0x3ff8750750750750, 0x3e0c045d147711da, 52},
	"layered(3,4,7)":     {"d493a921d2100c7732ef53f4799917d2852128ea5eb20981f17cb0a770d9b0cc", 0x3ff05de2c3999bea, 0x3e0465dee95f7cc3, 134},
	"sparse-random(600)": {"ace91c02b2d2b79312cd5e2f5882333eb63692af26d636fb8bdd0859a0a0f014", 0x40595c18077559f9, 0x3e0fad0663af9441, 35},
	"braess+toll":        {"c5cadb80bd268623817cd46a93910c87a5f6f71e73937d2dcc9a5cfa2c836aed", 0x3ff4a3d70a3d70a5, 0x3cf99861861862fd, 3},
}

var optimumGoldens = map[string]poaGolden{
	"pigou":          {solveGolden{"606e5166986dd9f186277d16e3d18bae3887a944a829487b59fd8672bbb20251", 0x3fe8000000000000, 0x0, 1}, 0x3ff5555555555555, 0x3ff0000000000000, 0x3fe8000000000000},
	"braess":         {solveGolden{"322584fb5f852d2d17fb2fa2310ad230d28e172639ff4a64d1353e423a0080aa", 0x3ff8000000000000, 0x3d4553fffffffc73, 3}, 0x3ff5555555555555, 0x4000000000000000, 0x3ff8000000000000},
	"links(8)":       {solveGolden{"880a59ff79bdb3d177d92199a1c0b3f45525eb2f59a292f6b0dace1c9ffbd2cb", 0x3fdbf488f0013828, 0x3e04838717650a66, 28}, 0x3ff0fb99845a5f55, 0x3fddac214dd31223, 0x3fdbf488f0013828},
	"grid(4)":        {solveGolden{"c1fccc004208239e9a3547e5bdbfbed6f8806228af608b2e37afa92408c4c17f", 0x4003a83a83a83a81, 0x3e0fe9d7e036406b, 52}, 0x3ff0000000000000, 0x4003a83a83a83a81, 0x4003a83a83a83a81},
	"layered(3,4,7)": {solveGolden{"90d92db7c46bafcc26ee9ebed89ebb9322d472c338427375b51214acff8f0f0a", 0x3ff62b128e6c7117, 0x3e10f846aaaf52b1, 244}, 0x3ff0327cca5a71f2, 0x3ff671060e966e2f, 0x3ff62b128e6c7117},
	"braess+toll":    {solveGolden{"1a9924624b19da84d55766bcc40a45df954bcc9bb556b163aaffd953fcca2575", 0x3ffb333333333334, 0x3d5887ffffffffff, 7}, 0x3ff3c3c3c3c3c2a4, 0x4000cccccccccbd9, 0x3ffb333333333334},
}

func TestSolveEquilibriumGoldens(t *testing.T) {
	for _, gi := range goldenInstances(t) {
		res, err := SolveEquilibrium(gi.inst, gi.opts)
		if res == nil {
			t.Fatalf("%s: %v", gi.name, err)
		}
		got := digestResult(res)
		if want, ok := equilibriumGoldens[gi.name]; !ok || got != want {
			t.Errorf("got %q: {%q, %#x, %#x, %d}, want %+v", gi.name, got.flow, got.phi, got.relGap, got.iters, want)
		}
	}
}

func TestSocialOptimumAndPoAGoldens(t *testing.T) {
	for _, gi := range goldenInstances(t) {
		if !gi.full {
			continue
		}
		opt, err := SolveSocialOptimum(gi.inst, gi.opts)
		if err != nil {
			t.Fatalf("%s: %v", gi.name, err)
		}
		poa, eqCost, optCost, err := PriceOfAnarchy(gi.inst, gi.opts)
		if err != nil {
			t.Fatalf("%s: %v", gi.name, err)
		}
		got := poaGolden{
			opt:     digestResult(opt),
			poa:     math.Float64bits(poa),
			eqCost:  math.Float64bits(eqCost),
			optCost: math.Float64bits(optCost),
		}
		if want, ok := optimumGoldens[gi.name]; !ok || got != want {
			t.Errorf("got %q: {solveGolden{%q, %#x, %#x, %d}, %#x, %#x, %#x}, want %+v", gi.name,
				got.opt.flow, got.opt.phi, got.opt.relGap, got.opt.iters, got.poa, got.eqCost, got.optCost, want)
		}
	}
}
