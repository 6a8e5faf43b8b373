package wardrop_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"wardrop"
)

// squareLatency is a user-defined latency function ℓ(x) = c·x², used to
// prove that registered components are first-class citizens of every file
// format.
type squareLatency struct{ C float64 }

func (s squareLatency) Value(x float64) float64      { return s.C * x * x }
func (s squareLatency) Derivative(x float64) float64 { return 2 * s.C * x }
func (s squareLatency) Integral(x float64) float64   { return s.C * x * x * x / 3 }
func (s squareLatency) SlopeBound() float64          { return 2 * s.C }
func (s squareLatency) String() string               { return fmt.Sprintf("square(%g)", s.C) }

// registerTestComponents registers the test latency kind and topology family
// once per test binary (the registries are process-global).
var registered = func() bool {
	err := wardrop.RegisterLatency(wardrop.LatencyEntry{
		Name: "testsquare",
		Doc:  "test-only quadratic latency c·x²",
		Params: []wardrop.CatalogParam{
			{Name: "c", Type: "float", Doc: "coefficient"},
		},
		Build: func(args json.RawMessage) (wardrop.LatencyFunc, error) {
			var p struct {
				C float64 `json:"c"`
			}
			if err := wardrop.DecodeCatalogParams(args, &p); err != nil {
				return nil, err
			}
			return squareLatency{C: p.C}, nil
		},
	})
	if err != nil {
		panic(err)
	}
	err = wardrop.RegisterTopology(wardrop.TopologyEntry{
		Name: "testsquares",
		Doc:  "test-only family: m parallel links with ℓ_j(x) = (j+1)·x²",
		Params: []wardrop.CatalogParam{
			{Name: "m", Type: "int", Doc: "link count (>= 2)"},
		},
		Build: func(args json.RawMessage) (wardrop.TopologyBuilder, error) {
			var p struct {
				M int `json:"m"`
			}
			if err := wardrop.DecodeCatalogParams(args, &p); err != nil {
				return wardrop.TopologyBuilder{}, err
			}
			if p.M < 2 {
				return wardrop.TopologyBuilder{}, fmt.Errorf("testsquares m %d must be >= 2", p.M)
			}
			return wardrop.TopologyBuilder{
				Key: fmt.Sprintf("testsquares(m=%d)", p.M),
				New: func(uint64) (*wardrop.Instance, error) {
					lats := make([]wardrop.LatencyFunc, p.M)
					for j := range lats {
						lats[j] = squareLatency{C: float64(j + 1)}
					}
					return wardrop.ParallelLinks(lats)
				},
			}, nil
		},
	})
	if err != nil {
		panic(err)
	}
	return true
}()

// A user-registered latency kind flows through an instance document inside a
// scenario file; a user-registered topology family is selectable directly.
func TestRegisteredComponentsFlowThroughScenarioFiles(t *testing.T) {
	_ = registered
	doc := `{
	  "instance": {
	    "nodes": ["s", "t"],
	    "edges": [
	      {"from": "s", "to": "t", "latency": {"kind": "testsquare", "params": {"c": 2}}},
	      {"from": "s", "to": "t", "latency": {"kind": "constant", "c": 1}}
	    ],
	    "commodities": [{"source": "s", "sink": "t", "demand": 1}]
	  },
	  "policy": {"kind": "replicator"},
	  "updatePeriod": "safe",
	  "horizon": 30
	}`
	s, err := wardrop.ParseScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	// The custom latency is really in play: ℓ1(x) = 2x² against ℓ2 = 1, so
	// the equilibrium puts x = 1/√2 on link 1.
	res, err := wardrop.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 / math.Sqrt2; math.Abs(res.Final[0]-want) > 1e-3 {
		t.Errorf("equilibrium flow on the square link = %g, want %g", res.Final[0], want)
	}

	family := `{
	  "topology": {"family": "testsquares", "params": {"m": 3}},
	  "policy": {"kind": "uniform"},
	  "updatePeriod": "safe",
	  "horizon": 5
	}`
	s2, err := wardrop.ParseScenario(strings.NewReader(family))
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := s2.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc2.Instance.NumPaths() != 3 {
		t.Errorf("paths = %d, want 3", sc2.Instance.NumPaths())
	}
	if _, err := wardrop.Run(context.Background(), sc2); err != nil {
		t.Fatal(err)
	}
}

// The same registered family drives a whole campaign axis, with its key
// labelling the aggregation cells.
func TestRegisteredTopologyFlowsThroughCampaigns(t *testing.T) {
	_ = registered
	doc := `{
	  "name": "custom-family",
	  "topologies": [{"family": "testsquares", "params": {"m": 2}}],
	  "policies": [{"kind": "uniform"}],
	  "updatePeriods": ["safe"],
	  "maxPhases": 10
	}`
	c, err := wardrop.ParseCampaign(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := wardrop.RunSweep(context.Background(), c, wardrop.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("records = %d", len(res.Records))
	}
	rec := res.Records[0]
	if rec.Error != "" {
		t.Fatalf("task failed: %s", rec.Error)
	}
	if rec.Topology != "testsquares(m=2)" {
		t.Errorf("cell label = %q, want testsquares(m=2)", rec.Topology)
	}
	// Bad params are caught at parse time like any builtin family's.
	bad := strings.Replace(doc, `{"m": 2}`, `{"m": 1}`, 1)
	if _, err := wardrop.ParseCampaign(strings.NewReader(bad)); err == nil {
		t.Error("invalid custom params accepted")
	}
}

// Catalog() lists builtins and user registrations in deterministic order.
func TestCatalogListsRegisteredComponents(t *testing.T) {
	_ = registered
	comps := wardrop.Catalog()
	found := map[string]bool{}
	lastKind, lastName := "", ""
	kindRank := map[string]int{}
	for i, c := range comps {
		found[c.Kind+"/"+c.Name] = true
		if c.Kind != lastKind {
			if _, seen := kindRank[c.Kind]; seen {
				t.Errorf("kind %q appears in two separate groups", c.Kind)
			}
			kindRank[c.Kind] = i
			lastKind, lastName = c.Kind, ""
		}
		if lastName != "" && c.Name <= lastName {
			t.Errorf("kind %q not sorted: %q after %q", c.Kind, c.Name, lastName)
		}
		lastName = c.Name
	}
	for _, want := range []string{
		"latency/linear", "latency/testsquare",
		"topology/custom", "topology/testsquares",
		"policy/boltzmann", "migrator/alphalinear",
		"engine/agents", "integrator/rk4", "start/skewed",
	} {
		if !found[want] {
			t.Errorf("Catalog() missing %s", want)
		}
	}
	var buf bytes.Buffer
	if err := wardrop.WriteCatalog(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "testsquare(") {
		t.Error("WriteCatalog missing registered component")
	}
}

// Duplicate registrations are rejected across all Register* fronts.
func TestDuplicateRegistrationRejected(t *testing.T) {
	_ = registered
	err := wardrop.RegisterLatency(wardrop.LatencyEntry{
		Name:  "linear",
		Build: func(json.RawMessage) (wardrop.LatencyFunc, error) { return nil, nil },
	})
	if err == nil {
		t.Error("duplicate latency registration accepted")
	}
	err = wardrop.RegisterTopology(wardrop.TopologyEntry{
		Name:  "pigou",
		Build: func(json.RawMessage) (wardrop.TopologyBuilder, error) { return wardrop.TopologyBuilder{}, nil },
	})
	if err == nil {
		t.Error("duplicate topology registration accepted")
	}
	err = wardrop.RegisterPolicy(wardrop.SamplerEntry{
		Name:  "uniform",
		Build: func(json.RawMessage) (wardrop.SamplerChoice, error) { return wardrop.SamplerChoice{}, nil },
	})
	if err == nil {
		t.Error("duplicate policy registration accepted")
	}
	err = wardrop.RegisterMigrator(wardrop.MigratorEntry{
		Name:  "linear",
		Build: func(json.RawMessage) (wardrop.MigratorChoice, error) { return wardrop.MigratorChoice{}, nil },
	})
	if err == nil {
		t.Error("duplicate migrator registration accepted")
	}
	err = wardrop.RegisterEngine(wardrop.EngineEntry{
		Name:  "fluid",
		Build: func(json.RawMessage) (wardrop.Engine, error) { return nil, nil },
	})
	if err == nil {
		t.Error("duplicate engine registration accepted")
	}
	err = wardrop.RegisterStart(wardrop.StartEntry{
		Name:  "uniform",
		Build: func(json.RawMessage) (wardrop.StartFunc, error) { return nil, nil },
	})
	if err == nil {
		t.Error("duplicate start registration accepted")
	}
}

// registerFirstPathStart adds the test-only "testfirstpath" start once per
// process: the start catalog is global and refuses a second entry.
var registerFirstPathStart = sync.OnceValue(func() error {
	return wardrop.RegisterStart(wardrop.StartEntry{
		Name: "testfirstpath",
		Doc:  "test-only start: everything on each commodity's first path",
		Build: func(json.RawMessage) (wardrop.StartFunc, error) {
			return func(inst *wardrop.Instance) (wardrop.Flow, error) {
				f := make(wardrop.Flow, inst.NumPaths())
				for i := 0; i < inst.NumCommodities(); i++ {
					lo, _ := inst.CommodityRange(i)
					f[lo] = inst.Commodity(i).Demand
				}
				return f, nil
			}, nil
		},
	})
})

// A user-registered start distribution is selectable from scenario files.
func TestRegisteredStartFlowsThroughScenarios(t *testing.T) {
	_ = registered
	if err := registerFirstPathStart(); err != nil {
		t.Fatal(err)
	}
	doc := `{
	  "topology": {"family": "pigou"},
	  "policy": {"kind": "uniform"},
	  "updatePeriod": 0.25,
	  "horizon": 1,
	  "start": "testfirstpath"
	}`
	s, err := wardrop.ParseScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.InitialFlow[0] != 1 || sc.InitialFlow[1] != 0 {
		t.Errorf("initial flow = %v, want [1 0]", sc.InitialFlow)
	}
}
