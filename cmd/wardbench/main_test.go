package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wardrop/internal/report"
)

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "e99"}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("error = %v", err)
	}
}

func TestRunSingleExperimentAndCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "e1,e2", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e1", "e2"} {
		data, err := os.ReadFile(filepath.Join(dir, id+".csv"))
		if err != nil {
			t.Fatalf("%s.csv: %v", id, err)
		}
		if !strings.Contains(string(data), "beta") && !strings.Contains(string(data), "eps") {
			t.Errorf("%s.csv missing header: %q", id, string(data[:50]))
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunBadBenchScale(t *testing.T) {
	for _, v := range []string{"ten", "0", "-5", "1000,,2000"} {
		if err := run([]string{"-exp", "e1", "-benchscale", v}); err == nil || !strings.Contains(err.Error(), "-benchscale") {
			t.Errorf("-benchscale %q: error = %v", v, err)
		}
	}
}

func TestRunBadBenchLoad(t *testing.T) {
	for _, v := range []string{"many", "0", "-2", "1,,4"} {
		if err := run([]string{"-exp", "e1", "-benchload", v}); err == nil || !strings.Contains(err.Error(), "-benchload") {
			t.Errorf("-benchload %q: error = %v", v, err)
		}
	}
}

func TestRunBenchJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_kernel.json")
	// -benchgrid 0 / -benchserve=false skip the (slow) kernel and serving
	// suites; the experiment entries and document shape are what this test
	// pins.
	if err := run([]string{"-exp", "e1", "-benchjson", path, "-benchgrid", "0", "-benchserve=false", "-benchload=", "-benchmeanfield=false"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.Schema != "wardrop/bench/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "e1" {
		t.Fatalf("experiments = %+v", rep.Experiments)
	}
	e := rep.Experiments[0]
	if e.WallNs <= 0 || e.AllocsPerOp <= 0 {
		t.Errorf("entry not measured: %+v", e)
	}
	if e.Metric != "worst-rel-amp-err" {
		t.Errorf("headline metric = %q", e.Metric)
	}
}

func TestHeadlineCoversEveryExperiment(t *testing.T) {
	// Every runnable id must map to a headline extractor (or be knowingly
	// headline-free); a new experiment without one should fail loudly here.
	tbl := &report.Table{Rows: [][]string{
		{"1", "1", "1", "1", "1", "1"},
		{"2", "2", "2", "2", "2", "2"},
	}}
	for _, id := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "ablation", "e6c", "e7c", "e8c"} {
		if name, _, ok := headline(id, tbl); !ok || name == "" {
			t.Errorf("experiment %s has no headline metric", id)
		}
	}
}

func TestRunBenchJSONServeSuite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_kernel.json")
	if err := run([]string{"-exp", "e1", "-benchjson", path, "-benchgrid", "0", "-benchload=", "-benchmeanfield=false"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rep.Serve) != 2 {
		t.Fatalf("serve suite has %d measurements, want 2: %+v", len(rep.Serve), rep.Serve)
	}
	byName := map[string]bool{}
	for _, m := range rep.Serve {
		byName[m.Name] = true
		if m.NsPerOp <= 0 || m.RequestsPerSec <= 0 {
			t.Errorf("unmeasured serve workload: %+v", m)
		}
	}
	if !byName["serve/scenario/cached"] || !byName["serve/scenario/uncached"] {
		t.Fatalf("serve suite workloads = %+v", rep.Serve)
	}
}

// TestRunBenchJSONServeLoadSuite pins the serveLoad document shape: a short
// two-step ramp lands in BENCH_kernel.json with a saturation point.
func TestRunBenchJSONServeLoadSuite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_kernel.json")
	if err := run([]string{"-exp", "e1", "-benchjson", path, "-benchgrid", "0", "-benchserve=false", "-benchload", "1,2", "-benchmeanfield=false", "-benchdispatch=false"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.ServeLoad == nil || len(rep.ServeLoad.Steps) == 0 {
		t.Fatalf("serveLoad suite missing: %+v", rep.ServeLoad)
	}
	if rep.ServeLoad.SaturationClients == 0 || rep.ServeLoad.SaturationRequestsPerSec <= 0 {
		t.Fatalf("serveLoad saturation point incomplete: %+v", rep.ServeLoad)
	}
	for _, s := range rep.ServeLoad.Steps {
		if s.Requests == 0 || s.P99Ms < s.P50Ms {
			t.Errorf("malformed step: %+v", s)
		}
	}
}

// The count experiments run through wardbench end-to-end, and the meanfield
// population-scaling suite lands in the benchjson document.
func TestRunBenchJSONMeanfieldSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full population-scaling benchmark suite")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_kernel.json")
	if err := run([]string{"-exp", "e6c", "-benchjson", path, "-benchgrid", "0", "-benchserve=false", "-benchload="}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "e6c" || rep.Experiments[0].Metric != "rounds-at-max-m" {
		t.Fatalf("experiments = %+v", rep.Experiments)
	}
	// 5 count populations + 3 per-agent populations.
	if len(rep.Meanfield) != 8 {
		t.Fatalf("meanfield suite has %d measurements, want 8", len(rep.Meanfield))
	}
	for _, m := range rep.Meanfield {
		if m.NsPerPhase <= 0 || (m.Engine != "count" && m.Engine != "agents") {
			t.Errorf("unmeasured meanfield workload: %+v", m)
		}
	}
	if rep.CountFlatness <= 0 {
		t.Errorf("countFlatness = %g, want > 0", rep.CountFlatness)
	}
}
