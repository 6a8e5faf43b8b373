package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
}

// around returns n values spread evenly within ±rel of center.
func around(center, rel float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = center * (1 - rel + 2*rel*float64(i)/float64(n-1))
	}
	return xs
}

func TestJudge(t *testing.T) {
	cases := []struct {
		name     string
		old, new []float64
		better   string
		bound    float64
		want     string
	}{
		{"clear latency gain", around(10, 0.02, 10), around(8, 0.02, 10), "lower", 0.1, verdictImproved},
		{"clear throughput gain", around(100, 0.02, 10), around(130, 0.02, 10), "higher", 0.1, verdictImproved},
		{"same code", around(10, 0.02, 10), around(10, 0.02, 10), "lower", 0.1, verdictUnchanged},
		{"small loss within bound", around(10, 0.02, 10), around(10.5, 0.02, 10), "lower", 0.1, verdictUnchanged},
		{"loss beyond bound", around(10, 0.02, 10), around(12, 0.02, 10), "lower", 0.1, verdictWorse},
		{"throughput loss beyond bound", around(100, 0.02, 10), around(80, 0.02, 10), "higher", 0.1, verdictWorse},
		{"spread wider than bound", around(10, 0.5, 10), around(11, 0.5, 10), "lower", 0.1, verdictUnresolved},
		{"wide but every new run better", around(10, 0.3, 10), around(3, 0.3, 10), "lower", 0.1, verdictImproved},
		{"per-layer without bound, same", around(10, 0.5, 10), around(10, 0.5, 10), "lower", 0, verdictUnchanged},
		{"per-layer without bound, worse", around(10, 0.02, 10), around(15, 0.02, 10), "lower", 0, verdictWorse},
	}
	for _, c := range cases {
		got, _, _ := judge(c.old, c.new, c.better, c.bound)
		if got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestJudgeNeedsNineTenthsOfPairs(t *testing.T) {
	old := around(10, 0.01, 10)
	new := around(8, 0.01, 10)
	// Two pairs where the change loses: 8/10 wins is not a gain, and the
	// median gap is within the bound, so the verdict is unchanged.
	new[0], new[1] = 20, 20
	if got, wins, pairs := judge(old, new, "lower", 0.25); got == verdictImproved || wins != 8 || pairs != 10 {
		t.Fatalf("verdict %q with %d/%d wins; want no gain at 8/10", got, wins, pairs)
	}
	new[1] = 8
	if got, _, _ := judge(old, new, "lower", 0.25); got != verdictImproved {
		t.Fatalf("verdict %q at 9/10 wins; want improved", got)
	}
}

func TestJudgeGapMustExceedParentSpread(t *testing.T) {
	// Every pair wins, but by less than the parent's interquartile range.
	old := around(10, 0.2, 10)
	new := make([]float64, len(old))
	for i, v := range old {
		new[i] = v - 0.1
	}
	if got, wins, _ := judge(old, new, "lower", 0.5); got == verdictImproved || wins != 10 {
		t.Fatalf("verdict %q with %d wins; a gap inside the parent's spread is no gain", got, wins)
	}
}

func TestCompareSetsPairsBySeedAndWorkload(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricDef{{Name: "tasks_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}},
		PerLayer: []metricDef{{Name: "flow.eval_us", Unit: "us", Better: "lower"}},
	}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"campaign"})
	mk := func(seed uint64, trace int, name string, v float64) resultFile {
		return resultFile{Schema: resultSchema, Workload: "campaign", Seed: seed, Trace: trace, Correct: true,
			Metrics: map[string]metricValue{name: {Value: v}}}
	}
	var old, new []resultFile
	for s := uint64(1); s <= 10; s++ {
		old = append(old, mk(s, 0, "tasks_per_s", 100+float64(s)/10))
		new = append(new, mk(s, 0, "tasks_per_s", 150+float64(s)/10))
		old = append(old, mk(s, 1, "flow.eval_us", 50))
		new = append(new, mk(s, 1, "flow.eval_us", 50))
	}
	// A run of a seed the parent never ran is left out of the pairing.
	new = append(new, mk(99, 0, "tasks_per_s", 1))
	cs := compareSets(spec, old, new)
	if len(cs) != 2 {
		t.Fatalf("%d comparisons, want 2", len(cs))
	}
	if cs[0].Metric != "tasks_per_s" || cs[0].Verdict != verdictImproved || cs[0].Pairs != 10 {
		t.Fatalf("end-to-end comparison %+v", cs[0])
	}
	if cs[1].Metric != "flow.eval_us" || cs[1].Verdict != verdictUnchanged {
		t.Fatalf("per-layer comparison %+v", cs[1])
	}
	var buf bytes.Buffer
	writeComparisons(&buf, cs)
	if !strings.Contains(buf.String(), "improved") {
		t.Fatalf("report lacks the verdict:\n%s", buf.String())
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if p := percentile(xs, 0.5); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
	if p := percentile(xs, 0.99); p != 5 {
		t.Fatalf("p99 = %v", p)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing is not NaN")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "bench.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "scenario.parse", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "engine.run", Start: 20, End: 60}, // overlaps parse
		{ID: 4, Parent: 3, Name: "flow.eval", Start: 30, End: 40},
	}
	self := selfTimes(spans)
	want := map[string]int64{"bench": 50, "scenario": 20, "engine": 30, "flow": 10}
	for l, w := range want {
		if int64(self[l]) != w {
			t.Errorf("self[%s] = %d, want %d", l, self[l], w)
		}
	}
}
