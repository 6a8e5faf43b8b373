package tntp_test

import (
	"encoding/json"
	"math"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/solver"
	"wardrop/internal/tntp"
	"wardrop/internal/topo"
)

// The published best-known Sioux Falls user equilibrium: total system
// travel time ≈ 7,480,225 veh·min (average trip time 20.74 min at total
// demand 360,600) and Beckmann objective ≈ 4.231335×10⁶. With k = 8
// shortest paths per OD pair our restricted-path equilibrium lands within
// a fraction of a percent (k = 16 reproduces the objective to 5 digits
// but takes several times longer; this is the CI point).
func TestSiouxFallsEquilibriumObjective(t *testing.T) {
	inst, err := tntp.Load("testdata/siouxfalls_net.tntp", "testdata/siouxfalls_trips.tntp",
		tntp.Options{KPaths: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.SolveEquilibrium(inst, solver.Options{MaxIters: 5000, RelGapTol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelGap > 1e-6 {
		t.Fatalf("solver did not converge: relGap %g after %d iters", res.RelGap, res.Iters)
	}
	ev := flow.NewEvaluator(inst, nil)
	ev.Eval(res.Flow)
	fe, le := ev.EdgeFlows(), ev.EdgeLatencies()
	tstt := 0.0
	for e := range fe {
		tstt += fe[e] * le[e]
	}
	const (
		wantTSTT      = 7480225.0
		wantObjective = 4231335.0
	)
	if rel := math.Abs(tstt-wantTSTT) / wantTSTT; rel > 0.005 {
		t.Errorf("TSTT = %.1f, want %.1f ± 0.5%% (off by %.3f%%)", tstt, wantTSTT, 100*rel)
	}
	if rel := math.Abs(res.Potential-wantObjective) / wantObjective; rel > 0.005 {
		t.Errorf("Beckmann objective = %.1f, want %.1f ± 0.5%%", res.Potential, wantObjective)
	}
	if avg := tstt / inst.TotalDemand(); math.Abs(avg-20.74) > 0.2 {
		t.Errorf("average trip time = %.3f min, want ≈ 20.74", avg)
	}
}

// The social optimum must be solved over the instance's own strategy space:
// on the k-shortest-path families (sparse-random, scalefree, tntp) a fresh
// enumeration of the graph's simple paths is a different, larger space, so
// the optimum's flow would not even index the instance's paths and the
// price of anarchy could drop below 1. Every file-free catalog family is
// checked — the fully enumerated ones at size 4, the k-shortest ones at the
// wardeq default size (m = 8) and at m = 200 — plus Sioux Falls.
func TestSocialOptimumKeepsStrategySpace(t *testing.T) {
	check := func(name string, inst *flow.Instance, opts solver.Options) {
		t.Helper()
		opt, err := solver.SolveSocialOptimum(inst, opts)
		if err != nil {
			t.Fatalf("%s: social optimum: %v", name, err)
		}
		if len(opt.Flow) != inst.NumPaths() {
			t.Errorf("%s: optimum has %d path flows, instance has %d paths", name, len(opt.Flow), inst.NumPaths())
		}
		poa, _, _, err := solver.PriceOfAnarchy(inst, opts)
		if err != nil {
			t.Fatalf("%s: price of anarchy: %v", name, err)
		}
		if !(poa >= 1-1e-9) {
			t.Errorf("%s: price of anarchy %g < 1", name, poa)
		}
	}
	for _, family := range topo.Catalog.Names() {
		if family == "tntp" || family == "custom" {
			continue // file- or document-backed; Sioux Falls stands in below
		}
		sizes := []int{4}
		if family == "sparse-random" || family == "scalefree" {
			sizes = []int{8, 200}
		}
		for _, size := range sizes {
			args, _ := json.Marshal(map[string]any{"size": size, "beta": 4})
			b, err := topo.Catalog.Build(family, args)
			if err != nil {
				t.Fatalf("%s: %v", family, err)
			}
			inst, err := b.New(1)
			if err != nil {
				t.Fatalf("%s: %v", b.Key, err)
			}
			check(b.Key, inst, solver.Options{})
		}
	}
	sf, err := tntp.Load("testdata/siouxfalls_net.tntp", "testdata/siouxfalls_trips.tntp",
		tntp.Options{KPaths: 4})
	if err != nil {
		t.Fatal(err)
	}
	check("tntp(siouxfalls,k=4)", sf, solver.Options{MaxIters: 5000, RelGapTol: 1e-3})
}
