package wardrop_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"wardrop"
)

func TestSimulateHedgeFacade(t *testing.T) {
	inst, err := wardrop.Pigou()
	if err != nil {
		t.Fatal(err)
	}
	res, err := wardrop.SimulateHedge(inst, wardrop.HedgeConfig{
		Eta: 0.2, UpdatePeriod: 0.25, Horizon: 150,
	}, inst.UniformFlow())
	if err != nil {
		t.Fatal(err)
	}
	if !inst.AtWardropEquilibrium(res.Final, 0.02) {
		t.Errorf("hedge did not converge: %v", res.Final)
	}
}

func TestRelativeGainFacade(t *testing.T) {
	inst, err := wardrop.Braess()
	if err != nil {
		t.Fatal(err)
	}
	mig, err := wardrop.NewRelativeGainMigrator(0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	pol := wardrop.Policy{Sampler: wardrop.ProportionalSampler{}, Migrator: mig}
	T, err := wardrop.SafeUpdatePeriodFor(pol, inst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wardrop.Run(context.Background(), wardrop.Scenario{
		Engine:   wardrop.FluidEngine{Integrator: wardrop.Uniformization},
		Instance: inst, Policy: pol, UpdatePeriod: T, Horizon: 800,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.AtWardropEquilibrium(res.Final, 0.05) {
		t.Errorf("relative-gain policy did not converge: %v", res.Final)
	}
}

func TestParseInstanceFacade(t *testing.T) {
	doc := `{
	  "nodes": ["s", "t"],
	  "edges": [
	    {"from": "s", "to": "t", "latency": {"kind": "kink", "beta": 4}},
	    {"from": "s", "to": "t", "latency": {"kind": "kink", "beta": 4}}
	  ],
	  "commodities": [{"source": "s", "sink": "t", "demand": 1}]
	}`
	inst, err := wardrop.ParseInstance(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inst.Beta()-4) > 1e-12 {
		t.Errorf("beta = %g", inst.Beta())
	}
	// The parsed kink instance reproduces the §3.2 oscillation.
	f1, _, _ := wardrop.TwoLinkOscillation(4, 0.5, 0)
	res, err := wardrop.Run(context.Background(), wardrop.Scenario{
		Engine:   wardrop.BestResponseEngine{},
		Instance: inst, UpdatePeriod: 0.5, Horizon: 4,
		InitialFlow: wardrop.Flow{f1, 1 - f1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Final[0]-f1) > 1e-9 {
		t.Errorf("parsed instance broke the periodic orbit: %v", res.Final)
	}
}

func TestAgentEventEngineFacade(t *testing.T) {
	inst, err := wardrop.Pigou()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := wardrop.Replicator(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	res, err := wardrop.Run(context.Background(), wardrop.Scenario{
		Engine:   wardrop.AgentsEngine{N: 500, Seed: 5, EventDriven: true},
		Instance: inst, Policy: pol, UpdatePeriod: 0.25, Horizon: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Feasible(res.Final, 1e-9); err != nil {
		t.Errorf("event-driven final infeasible: %v", err)
	}
}
