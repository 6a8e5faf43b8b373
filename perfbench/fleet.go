package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"wardrop/internal/dispatch"
	"wardrop/internal/obs"
	"wardrop/internal/serve"
	"wardrop/internal/sweep"
)

// fleet: RunDistSweep with one task in flight per node against two
// `wardserve -workers 1` children sharing one store. Half of each
// campaign's tasks ran during preparation, so the timed sweep is half
// remote hits and half remote misses of small fluid and count tasks.
const (
	fleetNodes  = 2
	fleetSeeds  = 16 // replicates per cell; preparation runs the first half
	fleetSpawns = 5  // set-ups per run; setup_s is their median
)

// fleetCampaign renders one repetition's campaign; seeds selects how many
// replicates (the preparation campaign is the same one with half of them).
func fleetCampaign(base uint64, seeds int) (*sweep.Campaign, error) {
	doc := mustJSON(map[string]any{
		"name": fmt.Sprintf("bench-fleet-%d", base),
		"topologies": []any{
			map[string]any{"family": "pigou"},
			map[string]any{"family": "braess"},
			map[string]any{"family": "links", "size": 4},
			map[string]any{"family": "grid", "size": 3},
		},
		"policies":      []any{map[string]any{"kind": "replicator"}, map[string]any{"kind": "uniform"}},
		"updatePeriods": []any{"safe", 0.1},
		"agents":        []int{0},
		"counts":        []int64{10000},
		"seeds":         seeds,
		"baseSeed":      base,
		"maxPhases":     30,
	})
	return sweep.ParseCampaign(bytes.NewReader(doc))
}

// taskTimer wraps the coordinator's HTTP transport and times every task
// round trip, from request start to the end of the response body, split by
// the node's X-Cache answer.
type taskTimer struct {
	base http.RoundTripper
	tr   *tracer
	root int64

	mu        sync.Mutex
	hit, miss []float64
}

func (t *taskTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/v1/tasks") {
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, t: t, start: start,
		tier: resp.Header.Get("X-Cache"), fp: resp.Header.Get("X-Fingerprint")}
	return resp, nil
}

// reset starts a new timed repetition.
func (t *taskTimer) reset(root int64) {
	t.mu.Lock()
	t.hit, t.miss, t.root = nil, nil, root
	t.mu.Unlock()
}

func (t *taskTimer) record(b *timedBody) {
	end := time.Now()
	ms := durMs(end.Sub(b.start))
	t.mu.Lock()
	if b.tier == serve.TierMiss {
		t.miss = append(t.miss, ms)
	} else {
		t.hit = append(t.hit, ms)
	}
	root := t.root
	t.mu.Unlock()
	if t.tr != nil {
		name := "dispatch.task_hit"
		if b.tier == serve.TierMiss {
			name = "dispatch.task_miss"
		}
		t.tr.add(spanRec{Parent: root, Name: name, Req: "task:" + b.fp, Start: t.tr.since(b.start), End: t.tr.since(end)})
	}
}

// timedBody records its round trip once, at EOF or close.
type timedBody struct {
	io.ReadCloser
	t        *taskTimer
	start    time.Time
	tier, fp string
	once     sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(func() { b.t.record(b) })
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(func() { b.t.record(b) })
	return b.ReadCloser.Close()
}

// fleetNodesUp spawns the two nodes concurrently and waits until both are
// ready, spawns times over; the last pair stays up.
func fleetNodesUp(cfg runConfig, storeDir string, spawns int) ([]*server, []float64, error) {
	var nodes []*server
	var setups []float64
	for i := 0; i < spawns; i++ {
		for _, n := range nodes {
			n.stop()
		}
		nodes = make([]*server, fleetNodes)
		errs := make([]error, fleetNodes)
		start := time.Now()
		var wg sync.WaitGroup
		for k := range nodes {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				nodes[k], _, errs[k] = startServer(cfg.BinDir, "-workers", "1", "-store", storeDir)
			}(k)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return nodes, setups, nil
}

// fleetRep is one timed distributed sweep.
type fleetRep struct {
	wall      time.Duration
	tasks     int
	phases    int
	hit, miss []float64
	localRate float64 // tasks/s of the same campaign swept locally
}

// prepareFleet runs the first half of the repetition's replicates on the
// fleet, so the timed sweep finds them in the nodes' caches and store.
func prepareFleet(urls []string, client *http.Client, base uint64) error {
	prep, err := fleetCampaign(base, fleetSeeds/2)
	if err != nil {
		return err
	}
	if _, err := dispatch.Run(context.Background(), prep, urls, dispatch.Options{Client: client, Inflight: 1}); err != nil {
		return fmt.Errorf("fleet preparation: %w", err)
	}
	return nil
}

// runFleetOnce times the repetition's whole campaign on the fleet and
// checks its canonical artifact against a local RunSweep of the same
// campaign.
func runFleetOnce(urls []string, timer *taskTimer, client *http.Client, reg *obs.Registry, base uint64, rep int) (*fleetRep, error) {
	opts := dispatch.Options{Client: client, Inflight: 1, Metrics: reg}
	c, err := fleetCampaign(base, fleetSeeds)
	if err != nil {
		return nil, err
	}
	root := timer.tr.begin("dispatch.Run", fmt.Sprintf("fleet%d", rep), 0)
	timer.reset(root.id)
	start := time.Now()
	res, err := dispatch.Run(context.Background(), c, urls, opts)
	wall := time.Since(start)
	root.end()
	if err != nil {
		return nil, err
	}
	timer.mu.Lock()
	r := &fleetRep{wall: wall, tasks: len(res.Tasks), hit: timer.hit, miss: timer.miss}
	timer.mu.Unlock()
	if err := checkRecords("fleet", res.Tasks, res.Records); err != nil {
		return nil, err
	}
	for _, rec := range res.Records {
		r.phases += rec.Phases
	}
	remote, err := canonicalArtifact(res.Records)
	if err != nil {
		return nil, err
	}
	lsp := timer.tr.begin("sweep.Run", fmt.Sprintf("fleet%d/local", rep), 0)
	lstart := time.Now()
	local, err := sweep.Run(context.Background(), c, sweep.Options{Workers: campaignWorkers()})
	r.localRate = float64(r.tasks) / time.Since(lstart).Seconds()
	lsp.end()
	if err != nil {
		return nil, err
	}
	want, err := canonicalArtifact(local.Records)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(remote, want) {
		return nil, gateFail("fleet: canonical artifact differs from a local RunSweep of the same campaign")
	}
	return r, nil
}

// newFleet starts the two nodes on a fresh shared store.
func newFleet(cfg runConfig, spawns int) (nodes []*server, urls []string, setups []float64, cleanup func(), err error) {
	dir, err := os.MkdirTemp(cfg.TmpDir, "fleet-")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	nodes, setups, err = fleetNodesUp(cfg, filepath.Join(dir, "store"), spawns)
	if err != nil {
		cleanup()
		return nil, nil, nil, nil, err
	}
	for _, n := range nodes {
		urls = append(urls, n.URL)
	}
	return nodes, urls, setups, cleanup, nil
}

// nodesCPU is the nodes' summed user+system CPU time.
func nodesCPU(nodes []*server) (float64, error) {
	total := 0.0
	for _, n := range nodes {
		c, err := cpuSeconds(n.Pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

func newTaskTimer(tr *tracer) (*taskTimer, *http.Client) {
	timer := &taskTimer{base: http.DefaultTransport.(*http.Transport).Clone(), tr: tr}
	return timer, &http.Client{Transport: timer}
}

func runFleet(cfg runConfig, out *outcome) error {
	nodes, urls, setups, cleanup, err := newFleet(cfg, fleetSpawns)
	if err != nil {
		return err
	}
	defer cleanup()
	timer, client := newTaskTimer(nil)
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	var rates, phaseRates, cpuUs []float64
	var hitGroups, missGroups [][]float64
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		base := cfg.Seed*1000003 + uint64(rep)
		if err := prepareFleet(urls, client, base); err != nil {
			return err
		}
		cpu0, err := nodesCPU(nodes)
		if err != nil {
			return err
		}
		r, err := runFleetOnce(urls, timer, client, nil, base, rep)
		if err != nil {
			return err
		}
		cpu1, err := nodesCPU(nodes)
		if err != nil {
			return err
		}
		cpuUs = append(cpuUs, 1e6*(cpu1-cpu0)/float64(r.tasks))
		out.count(int64(r.tasks), 0)
		rates = append(rates, float64(r.tasks)/r.wall.Seconds())
		phaseRates = append(phaseRates, float64(r.phases)/r.wall.Seconds())
		hitGroups, missGroups = append(hitGroups, r.hit), append(missGroups, r.miss)
	}
	rss := 0.0
	for _, n := range nodes {
		v, err := peakRSSMB(n.Pid)
		if err != nil {
			return err
		}
		rss = max(rss, v)
	}
	out.set("setup_s", median(setups))
	out.sample("setup_s", setups...)
	out.set("tasks_per_s", median(rates))
	out.sample("tasks_per_s", rates...)
	// A closed loop at full fleet width runs at its highest sustainable rate.
	out.set("max_rate_rps", median(rates))
	out.set("phases_per_s", median(phaseRates))
	out.sample("phases_per_s", phaseRates...)
	setLatencies(out, hitGroups, missGroups)
	out.set("cpu_us_per_op", median(cpuUs))
	out.sample("cpu_us_per_op", cpuUs...)
	out.set("peak_rss_mb", rss)
	fmt.Fprintf(os.Stderr, "perfbench: fleet: %d repetitions, %.1f tasks/s\n", len(rates), median(rates))
	return nil
}

// traceFleet runs the timed repetitions with the coordinator's instruments
// in a registry, scrapes both nodes' instruments around them, and compares
// with the same campaigns swept locally.
func traceFleet(cfg runConfig, out *outcome) error {
	tr := cfg.tr
	nodes, urls, _, cleanup, err := newFleet(cfg, 1)
	if err != nil {
		return err
	}
	defer cleanup()
	timer, client := newTaskTimer(tr)
	defer client.CloseIdleConnections()
	scrape := func() (map[string]float64, float64, error) {
		sum := map[string]float64{}
		for _, n := range nodes {
			m, err := scrapeProm(client, n.URL)
			if err != nil {
				return nil, 0, err
			}
			for k, v := range m {
				sum[k] += v
			}
		}
		cpu, err := nodesCPU(nodes)
		return sum, cpu, err
	}
	reg := obs.NewRegistry()
	var nodeRun, nodeJobs, hits, lookups, cpu float64
	var remote, local []float64
	tasks := 0
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for rep := 0; rep < 2 || time.Now().Before(deadline); rep++ {
		base := cfg.Seed*1000003 + uint64(rep)
		if err := prepareFleet(urls, client, base); err != nil {
			return err
		}
		before, cpu0, err := scrape()
		if err != nil {
			return err
		}
		r, err := runFleetOnce(urls, timer, client, reg, base, rep)
		if err != nil {
			return err
		}
		after, cpu1, err := scrape()
		if err != nil {
			return err
		}
		d := func(k string) float64 { return after[k] - before[k] }
		nodeRun += d("serve_run_ms_sum")
		nodeJobs += d("serve_run_ms_count")
		hits += d("serve_cache_hits_total")
		lookups += d("serve_cache_hits_total") + d("serve_cache_misses_total")
		cpu += cpu1 - cpu0
		tasks += r.tasks
		out.count(int64(r.tasks), 0)
		remote = append(remote, float64(r.tasks)/r.wall.Seconds())
		local = append(local, r.localRate)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return err
	}
	coord := parseProm(buf.String())
	transportUs := 1000 * coord["dispatch_transport_ms_sum"] / coord["dispatch_transport_ms_count"]
	out.set("dispatch.transport_us", transportUs)
	out.set("dispatch.queue_wait_us", 1000*coord["dispatch_queue_wait_ms_sum"]/coord["dispatch_queue_wait_ms_count"])
	out.set("dispatch.retries", coord["dispatch_retries_total"])
	out.set("dispatch.steals", coord["dispatch_steals_total"])
	out.set("serve.task_run_us", 1000*nodeRun/max(nodeJobs, 1))
	// Node run time per task averages over hits too (they run nothing).
	out.set("dispatch.overhead_us", transportUs-1000*nodeRun/float64(tasks))
	out.set("serve.task_hit_share", hits/max(lookups, 1))
	out.set("serve.cpu_us_per_task", 1e6*cpu/float64(tasks))
	out.set("dispatch.remote_local_ratio", median(remote)/median(local))
	out.sample("fleet.remote_tasks_per_s", remote...)
	out.sample("fleet.local_tasks_per_s", local...)
	return nil
}

// parseProm reads Prometheus text exposition into series → value.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, ln := range strings.Split(text, "\n") {
		if ln == "" || ln[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(ln, ' ')
		if i < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(ln[i+1:], &v); err == nil {
			out[ln[:i]] = v
		}
	}
	return out
}
