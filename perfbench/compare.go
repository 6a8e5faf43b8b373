package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of a comparison.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// winShare is the share of paired runs the change must win to claim a gain.
const winShare = 0.9

// sideStats summarises one side's runs of a (metric, workload) pair.
type sideStats struct {
	N              int
	Median, Q1, Q3 float64
}

func summarize(xs []float64) sideStats {
	q1, q3 := quartiles(xs)
	return sideStats{N: len(xs), Median: median(xs), Q1: q1, Q3: q3}
}

// spread is the interquartile distance as a share of the median.
func (s sideStats) spread() float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }

// comparison is the verdict on one (metric, workload) pair.
type comparison struct {
	Workload, Metric string
	Better           string
	Bound            float64 // 0 for per-layer metrics, which have none
	Old, New         sideStats
	Wins, Pairs      int
	Verdict          string
}

// judge compares old (parent) and new (change) runs of one metric. Runs are
// paired in order (the caller orders both sides by seed). The rules:
//
//   - improved: the change wins at least nine tenths of the pairs (ties count
//     for neither side) and the medians differ, in the better direction, by
//     more than the parent's interquartile distance;
//   - unresolved: otherwise, when either side's interquartile spread is wider
//     than the bound, unless every new run reads better than every old run;
//   - worse: the new median is worse than the old by more than the bound;
//   - unchanged: none of these.
//
// A metric without a bound (per-layer) is never unresolved; it is worse
// when the mirror of the improvement rule holds.
func judge(old, new []float64, better string, bound float64) (verdict string, wins, pairs int) {
	lower := better == "lower"
	improves := func(o, n float64) bool {
		if lower {
			return n < o
		}
		return n > o
	}
	pairs = min(len(old), len(new))
	losses := 0
	for i := 0; i < pairs; i++ {
		switch {
		case improves(old[i], new[i]):
			wins++
		case improves(new[i], old[i]):
			losses++
		}
	}
	o, n := summarize(old), summarize(new)
	gain := n.Median - o.Median // positive = better
	if lower {
		gain = -gain
	}
	iqr := o.Q3 - o.Q1
	if pairs > 0 && float64(wins) >= winShare*float64(pairs) && gain > iqr {
		return verdictImproved, wins, pairs
	}
	if bound <= 0 {
		if pairs > 0 && float64(losses) >= winShare*float64(pairs) && -gain > iqr {
			return verdictWorse, wins, pairs
		}
		return verdictUnchanged, wins, pairs
	}
	if (o.spread() > bound || n.spread() > bound) && !allBetter(old, new, improves) {
		return verdictUnresolved, wins, pairs
	}
	if -gain > bound*math.Abs(o.Median) {
		return verdictWorse, wins, pairs
	}
	return verdictUnchanged, wins, pairs
}

// allBetter reports whether every new value improves on every old value.
func allBetter(old, new []float64, improves func(o, n float64) bool) bool {
	for _, o := range old {
		for _, n := range new {
			if !improves(o, n) {
				return false
			}
		}
	}
	return len(old) > 0 && len(new) > 0
}

// loadResults reads the result file at path, or every result file in the
// directory at path, skipping runs that failed their gates.
func loadResults(path string) ([]resultFile, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []resultFile
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(b, &r); err != nil || r.Schema != resultSchema {
			continue
		}
		if r.Correct {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files at %s", path)
	}
	return out, nil
}

// compareSets judges every (metric, workload) pair the definition names
// and both result sets measured.
func compareSets(spec *benchSpec, old, new []resultFile) []comparison {
	type key struct {
		workload string
		trace    int
	}
	group := func(rs []resultFile) map[key][]resultFile {
		g := map[key][]resultFile{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			g[k] = append(g[k], r)
		}
		for _, v := range g {
			sort.Slice(v, func(i, j int) bool { return v[i].Seed < v[j].Seed })
		}
		return g
	}
	og, ng := group(old), group(new)
	endToEnd := append(append([]metricDef(nil), spec.EndToEnd...), ungatedDefs...)
	var out []comparison
	for _, w := range spec.Workloads {
		for trace, defs := range [][]metricDef{endToEnd, spec.PerLayer} {
			o, n := pairBySeed(og[key{w.Name, trace}], ng[key{w.Name, trace}])
			for _, d := range defs {
				ov, nv := values(o, d.Name), values(n, d.Name)
				if len(ov) == 0 || len(nv) == 0 {
					continue
				}
				v, wins, pairs := judge(ov, nv, d.Better, d.Bound)
				out = append(out, comparison{
					Workload: w.Name, Metric: d.Name, Better: d.Better, Bound: d.Bound,
					Old: summarize(ov), New: summarize(nv), Wins: wins, Pairs: pairs, Verdict: v,
				})
			}
		}
	}
	return out
}

// pairBySeed keeps, when both sides ran the same seeds, only the runs whose
// seed both sides have, so pairs compare like inputs; otherwise both sides
// stay in seed order.
func pairBySeed(old, new []resultFile) ([]resultFile, []resultFile) {
	seeds := map[uint64]int{}
	for _, r := range new {
		seeds[r.Seed]++
	}
	var o, n []resultFile
	for _, r := range old {
		if seeds[r.Seed] > 0 {
			seeds[r.Seed]--
			o = append(o, r)
		}
	}
	if len(o) == 0 {
		return old, new
	}
	keep := map[uint64]int{}
	for _, r := range o {
		keep[r.Seed]++
	}
	for _, r := range new {
		if keep[r.Seed] > 0 {
			keep[r.Seed]--
			n = append(n, r)
		}
	}
	return o, n
}

func values(rs []resultFile, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		} else if v, ok := r.Reported[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// writeComparisons prints one row per (workload, metric) pair.
func writeComparisons(w io.Writer, cs []comparison) {
	fmt.Fprintf(w, "%-11s %-34s %-6s %5s  %-32s %-32s %6s  %s\n",
		"workload", "metric", "better", "bound", "old median [q1, q3]", "new median [q1, q3]", "wins", "verdict")
	for _, c := range cs {
		bound := "-"
		if c.Bound > 0 {
			bound = fmt.Sprintf("%.2f", c.Bound)
		}
		fmt.Fprintf(w, "%-11s %-34s %-6s %5s  %-32s %-32s %3d/%-2d  %s\n",
			c.Workload, c.Metric, c.Better, bound, fmtSide(c.Old), fmtSide(c.New), c.Wins, c.Pairs, c.Verdict)
	}
}

func fmtSide(s sideStats) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", s.Median, s.Q1, s.Q3, s.N)
}

// compareMain is `perfbench compare OLD NEW`: OLD and NEW are result files
// or directories of them (the parent's runs and the change's).
func compareMain(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare OLD NEW")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	old, err := loadResults(args[0])
	if err != nil {
		return err
	}
	new, err := loadResults(args[1])
	if err != nil {
		return err
	}
	writeComparisons(stdout, compareSets(spec, old, new))
	return nil
}
