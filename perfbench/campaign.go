package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"wardrop"
	"wardrop/internal/flow"
	"wardrop/internal/sweep"
	"wardrop/internal/topo"
)

// campaign: a local RunSweep with one worker per CPU over a mixed campaign
// — braess, links, grid, layered and a small sparse-random topology;
// replicator and uniform policies; a safe and a numeric period; the fluid,
// agents and count engines. The sweep pool, per-task instance building and
// the engines do the work; nothing is served.

// campaignSpec renders the seeded campaign document.
func campaignSpec(seed uint64) []byte {
	return mustJSON(map[string]any{
		"name": fmt.Sprintf("bench-campaign-%d", seed),
		"topologies": []any{
			map[string]any{"family": "braess"},
			map[string]any{"family": "links", "size": 8},
			map[string]any{"family": "grid", "size": 4},
			map[string]any{"family": "layered", "size": 4, "layers": 3},
			map[string]any{"family": "sparse-random", "size": 2000, "params": map[string]any{"commodities": 2, "kpaths": 8}},
		},
		"policies":      []any{map[string]any{"kind": "replicator"}, map[string]any{"kind": "uniform"}},
		"updatePeriods": []any{"safe", 0.05},
		"agents":        []int{0, 1000},
		"counts":        []int64{1000000},
		"seeds":         8,
		"baseSeed":      seed,
		"maxPhases":     100,
		"start":         "skewed",
	})
}

// campaignWorkers is the pool width: one worker per CPU.
func campaignWorkers() int { return runtime.NumCPU() }

// engineOf names the engine a record ran on.
func engineOf(rec sweep.Record) string {
	switch {
	case rec.Count > 0:
		return "count"
	case rec.Agents > 0:
		return "agents"
	}
	return "fluid"
}

// instanceKeys marks, for each task in ID order, whether it is the first of
// the tasks sharing one built instance — the sweep's instance cache builds
// the instance (and its reference equilibrium) for that task and serves
// every later one from the cache.
func instanceKeys(tasks []sweep.Task) (first map[int]bool, err error) {
	first = map[int]bool{}
	seen := map[string]bool{}
	for _, t := range tasks {
		args, err := json.Marshal(t.Topology)
		if err != nil {
			return nil, err
		}
		b, err := topo.Catalog.Build(t.Topology.Family, args)
		if err != nil {
			return nil, err
		}
		key := b.Key
		if b.Seeded {
			key = fmt.Sprintf("%s#%d", key, t.Seed)
		}
		if !seen[key] {
			seen[key] = true
			first[t.ID] = true
		}
	}
	return first, nil
}

// checkRecords is the campaign gate: every task ID exactly once and no
// error record.
func checkRecords(name string, tasks []sweep.Task, recs []sweep.Record) error {
	if len(recs) != len(tasks) {
		return gateFail("%s: %d records for %d tasks", name, len(recs), len(tasks))
	}
	seen := make([]bool, len(tasks))
	for _, r := range recs {
		if r.ID < 0 || r.ID >= len(tasks) || seen[r.ID] {
			return gateFail("%s: task ID %d missing or repeated", name, r.ID)
		}
		seen[r.ID] = true
		if r.Error != "" {
			return gateFail("%s: task %d failed: %s", name, r.ID, r.Error)
		}
	}
	return nil
}

// canonicalArtifact is the byte-comparable JSONL of a sweep's records.
func canonicalArtifact(recs []sweep.Record) ([]byte, error) {
	var buf bytes.Buffer
	err := wardrop.EncodeSweepRecords(&buf, recs)
	return buf.Bytes(), err
}

// campaignRep is one timed campaign run.
type campaignRep struct {
	setup    time.Duration // parse to the first task's start
	wall     time.Duration // the sweep itself
	cpuS     float64       // this process's CPU time during the sweep
	res      *sweep.RunResult
	artifact []byte
}

// runCampaignOnce parses the campaign document and sweeps it.
func runCampaignOnce(doc []byte, tr *tracer, rep int) (*campaignRep, error) {
	t0 := time.Now()
	root := tr.begin("sweep.Run", fmt.Sprintf("campaign%d", rep), 0)
	c, err := sweep.ParseCampaign(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	var firstStart time.Time
	cpu0 := selfCPUSeconds()
	runStart := time.Now()
	res, err := sweep.Run(context.Background(), c, sweep.Options{
		Workers: campaignWorkers(),
		Progress: func(done, total int, rec sweep.Record) {
			now := time.Now()
			start := now.Add(-time.Duration(rec.WallMS * float64(time.Millisecond)))
			if firstStart.IsZero() || start.Before(firstStart) {
				firstStart = start
			}
			if tr != nil {
				tr.add(spanRec{Parent: root.id, Name: "sweep.task", Req: fmt.Sprintf("campaign%d/t%d", rep, rec.ID),
					Start: tr.since(start), End: tr.since(now)})
			}
		},
	})
	wall := time.Since(runStart)
	cpuS := selfCPUSeconds() - cpu0
	root.end()
	if err != nil {
		return nil, err
	}
	if err := checkRecords("campaign", res.Tasks, res.Records); err != nil {
		return nil, err
	}
	art, err := canonicalArtifact(res.Records)
	if err != nil {
		return nil, err
	}
	return &campaignRep{setup: firstStart.Sub(t0), wall: wall, cpuS: cpuS, res: res, artifact: art}, nil
}

func runCampaign(cfg runConfig, out *outcome) error {
	doc := campaignSpec(cfg.Seed)
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	var setups, rates, phaseRates, cpuUs []float64
	var hitGroups, missGroups [][]float64
	var ref []byte
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		r, err := runCampaignOnce(doc, nil, rep)
		if err != nil {
			return err
		}
		if ref == nil {
			ref = r.artifact
		} else if !bytes.Equal(ref, r.artifact) {
			return gateFail("campaign: repetition %d produced a different canonical artifact", rep)
		}
		first, err := instanceKeys(r.res.Tasks)
		if err != nil {
			return err
		}
		phases := 0
		var hitMs, missMs []float64
		for _, rec := range r.res.Records {
			phases += rec.Phases
			if first[rec.ID] {
				missMs = append(missMs, rec.WallMS)
			} else {
				hitMs = append(hitMs, rec.WallMS)
			}
		}
		hitGroups, missGroups = append(hitGroups, hitMs), append(missGroups, missMs)
		n := len(r.res.Tasks)
		out.count(int64(n), 0)
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, float64(n)/r.wall.Seconds())
		phaseRates = append(phaseRates, float64(phases)/r.wall.Seconds())
		cpuUs = append(cpuUs, 1e6*r.cpuS/float64(n))
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	out.set("setup_s", median(setups))
	out.sample("setup_s", setups...)
	out.set("tasks_per_s", median(rates))
	out.sample("tasks_per_s", rates...)
	// A closed loop at full pool width runs at its highest sustainable rate.
	out.set("max_rate_rps", median(rates))
	out.set("phases_per_s", median(phaseRates))
	out.sample("phases_per_s", phaseRates...)
	setLatencies(out, hitGroups, missGroups)
	out.set("cpu_us_per_op", median(cpuUs))
	out.sample("cpu_us_per_op", cpuUs...)
	out.set("peak_rss_mb", rss)
	fmt.Fprintf(os.Stderr, "perfbench: campaign: %d repetitions, %.1f tasks/s (samples %v)\n", len(rates), median(rates), rates)
	return nil
}

// traceCampaign times every task serially through sweep.RunTaskSpec, each
// distinct instance build through the topology catalog, and one pool run
// whose task spans give the pool's busy share.
func traceCampaign(cfg runConfig, out *outcome) error {
	tr := cfg.tr
	doc := campaignSpec(cfg.Seed)
	r, err := runCampaignOnce(doc, tr, 0)
	if err != nil {
		return err
	}
	out.count(int64(len(r.res.Tasks)), 0)
	busy := 0.0
	for _, rec := range r.res.Records {
		busy += rec.WallMS
	}
	out.set("sweep.pool_busy_share", busy/(float64(campaignWorkers())*durMs(r.wall)))

	c, err := sweep.ParseCampaign(bytes.NewReader(doc))
	if err != nil {
		return err
	}
	tasks, err := c.Expand()
	if err != nil {
		return err
	}
	first, err := instanceKeys(tasks)
	if err != nil {
		return err
	}
	var builds []float64
	for _, t := range tasks {
		if !first[t.ID] {
			continue
		}
		sp := tr.begin("topo.build", fmt.Sprintf("t%d", t.ID), 0)
		_, err := t.Topology.Build(t.Seed)
		builds = append(builds, float64(sp.end().Nanoseconds())/1e3)
		if err != nil {
			return err
		}
	}
	out.set("topo.build_us", median(builds))

	// Serially, on one instance cache and one workspace: the first task of
	// each instance pays its build, so only the later ones are engine time.
	cache := sweep.NewInstanceCache()
	ws := flow.NewWorkspace()
	byEngine := map[string][]float64{}
	recs := make([]sweep.Record, 0, len(tasks))
	for _, t := range tasks {
		ts := sweep.NewTaskSpec(c, t)
		sp := tr.begin("sweep.RunTaskSpec", fmt.Sprintf("t%d", t.ID), 0)
		rec, aborted := sweep.RunTaskSpec(context.Background(), ts, cache, ws)
		d := sp.end()
		if aborted {
			return fmt.Errorf("campaign: task %d aborted", t.ID)
		}
		rec.ID, rec.SeedIndex = t.ID, t.SeedIndex
		recs = append(recs, rec)
		if !first[t.ID] {
			byEngine[engineOf(rec)] = append(byEngine[engineOf(rec)], float64(d.Nanoseconds())/1e3)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	if err := checkRecords("campaign (serial)", tasks, recs); err != nil {
		return err
	}
	art, err := canonicalArtifact(recs)
	if err != nil {
		return err
	}
	if !bytes.Equal(art, r.artifact) {
		return gateFail("campaign: serial RunTaskSpec records differ from the pool's")
	}
	for _, e := range []string{"fluid", "agents", "count"} {
		out.set("sweep.task_us."+e, median(byEngine[e]))
		out.sample("sweep.task_us."+e, byEngine[e]...)
	}
	return nil
}
