package spec

import (
	"errors"
	"math"
	"strings"
	"testing"

	"wardrop/internal/latency"
)

const pigouJSON = `{
  "nodes": ["s", "t"],
  "edges": [
    {"from": "s", "to": "t", "latency": {"kind": "linear", "slope": 1}},
    {"from": "s", "to": "t", "latency": {"kind": "constant", "c": 1}}
  ],
  "commodities": [{"source": "s", "sink": "t", "demand": 1}]
}`

func TestParsePigou(t *testing.T) {
	inst, err := Parse(strings.NewReader(pigouJSON))
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumPaths() != 2 || inst.NumCommodities() != 1 {
		t.Errorf("paths=%d commodities=%d", inst.NumPaths(), inst.NumCommodities())
	}
	f := inst.PathLatencies(inst.UniformFlow())
	if math.Abs(f[0]-0.5) > 1e-12 || math.Abs(f[1]-1) > 1e-12 {
		t.Errorf("latencies = %v", f)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	bad := `{"nodes": ["a","b"], "edges": [], "commodities": [], "bogus": 1}`
	if _, err := Parse(strings.NewReader(bad)); !errors.Is(err, ErrBadSpec) {
		t.Errorf("error = %v", err)
	}
}

func TestParseStructuralErrors(t *testing.T) {
	cases := map[string]string{
		"no nodes":       `{"nodes": [], "edges": [{"from":"a","to":"b","latency":{"kind":"constant"}}], "commodities": [{"source":"a","sink":"b","demand":1}]}`,
		"no edges":       `{"nodes": ["a","b"], "edges": [], "commodities": [{"source":"a","sink":"b","demand":1}]}`,
		"no commodities": `{"nodes": ["a","b"], "edges": [{"from":"a","to":"b","latency":{"kind":"constant"}}], "commodities": []}`,
		"unknown from":   `{"nodes": ["a","b"], "edges": [{"from":"x","to":"b","latency":{"kind":"constant"}}], "commodities": [{"source":"a","sink":"b","demand":1}]}`,
		"unknown to":     `{"nodes": ["a","b"], "edges": [{"from":"a","to":"x","latency":{"kind":"constant"}}], "commodities": [{"source":"a","sink":"b","demand":1}]}`,
		"unknown source": `{"nodes": ["a","b"], "edges": [{"from":"a","to":"b","latency":{"kind":"constant"}}], "commodities": [{"source":"x","sink":"b","demand":1}]}`,
		"unknown sink":   `{"nodes": ["a","b"], "edges": [{"from":"a","to":"b","latency":{"kind":"constant"}}], "commodities": [{"source":"a","sink":"x","demand":1}]}`,
		"bad latency":    `{"nodes": ["a","b"], "edges": [{"from":"a","to":"b","latency":{"kind":"warp"}}], "commodities": [{"source":"a","sink":"b","demand":1}]}`,
		"bad json":       `{`,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(doc)); err == nil {
				t.Error("accepted invalid spec")
			}
		})
	}
}

func TestLatencyBuildAllKinds(t *testing.T) {
	cases := []struct {
		spec Latency
		x    float64
		want float64
	}{
		{Latency{Kind: "constant", C: 2}, 0.5, 2},
		{Latency{Kind: "linear", Slope: 2, Offset: 1}, 0.5, 2},
		{Latency{Kind: "polynomial", Coeffs: []float64{1, 0, 1}}, 2, 5},
		{Latency{Kind: "monomial", Coef: 3, Degree: 2}, 2, 12},
		{Latency{Kind: "bpr", FreeTime: 1, Capacity: 1}, 1, 1.15},
		{Latency{Kind: "mm1", Capacity: 2}, 1, 1},
		{Latency{Kind: "pwl", Xs: []float64{0, 1}, Ys: []float64{0, 2}}, 0.5, 1},
		{Latency{Kind: "kink", Beta: 4}, 0.75, 1},
	}
	for _, tc := range cases {
		f, err := tc.spec.Build()
		if err != nil {
			t.Errorf("%s: %v", tc.spec.Kind, err)
			continue
		}
		if got := f.Value(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Value(%g) = %g, want %g", tc.spec.Kind, tc.x, got, tc.want)
		}
	}
}

func TestLatencyBuildErrors(t *testing.T) {
	bad := []Latency{
		{Kind: "kink", Beta: 0},
		{Kind: "mm1", Capacity: 0.5},
		{Kind: "bpr", FreeTime: -1, Capacity: 1},
		{Kind: "polynomial", Coeffs: []float64{-1}},
		{Kind: "pwl", Xs: []float64{0}, Ys: []float64{0}},
		{Kind: ""},
	}
	for _, l := range bad {
		if _, err := l.Build(); err == nil {
			t.Errorf("kind %q accepted invalid params", l.Kind)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s := Instance{
		Nodes: []string{"s", "t"},
		Edges: []Edge{
			{From: "s", To: "t", Latency: Latency{Kind: "linear", Slope: 1}},
			{From: "s", To: "t", Latency: Latency{Kind: "constant", C: 1}},
		},
		Commodities: []Commodity{{Source: "s", Sink: "t", Demand: 1}},
	}
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Parse(strings.NewReader(string(data)))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if inst.NumPaths() != 2 {
		t.Errorf("paths = %d", inst.NumPaths())
	}
}

func TestParsedInstanceMatchesLibraryPigou(t *testing.T) {
	inst, err := Parse(strings.NewReader(pigouJSON))
	if err != nil {
		t.Fatal(err)
	}
	// Same structure as the library's Pigou builder.
	if inst.LMax() != 1 || inst.Beta() != 1 || inst.MaxPathLen() != 1 {
		t.Errorf("lmax=%g beta=%g D=%d", inst.LMax(), inst.Beta(), inst.MaxPathLen())
	}
	var _ latency.Function = inst.Latency(0)
}

func TestMaxPathLenRespected(t *testing.T) {
	doc := `{
	  "nodes": ["s", "m", "t"],
	  "edges": [
	    {"from": "s", "to": "t", "latency": {"kind": "constant", "c": 1}},
	    {"from": "s", "to": "m", "latency": {"kind": "constant", "c": 1}},
	    {"from": "m", "to": "t", "latency": {"kind": "constant", "c": 1}}
	  ],
	  "commodities": [{"source": "s", "sink": "t", "demand": 1}],
	  "maxPathLen": 1
	}`
	inst, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumPaths() != 1 {
		t.Errorf("paths = %d, want 1 (maxPathLen=1)", inst.NumPaths())
	}
}

func TestDecodeWithoutBuild(t *testing.T) {
	doc := `{
	  "nodes": ["s", "t"],
	  "edges": [{"from": "s", "to": "t", "latency": {"kind": "linear", "slope": 1}}],
	  "commodities": [{"source": "s", "sink": "t", "demand": 1}]
	}`
	s, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Nodes) != 2 || len(s.Edges) != 1 || len(s.Commodities) != 1 {
		t.Errorf("decoded shape = %+v", s)
	}
	if _, err := s.Build(); err != nil {
		t.Errorf("decoded spec failed to build: %v", err)
	}
	if _, err := Decode(strings.NewReader(`{"nodes": [], "bogus": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}
