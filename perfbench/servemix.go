package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"wardrop"
	"wardrop/internal/engine"
	"wardrop/internal/scenario"
	"wardrop/internal/serve"
	"wardrop/internal/store"
)

// serve-mix: an open loop of seeded Poisson arrivals over two loopback
// connections to a wardserve child with a durable store and an in-memory
// cache smaller than the spec pool. Most arrivals repeat Zipf-popular pool
// specs (answered from the cache or the store); the rest are fresh specs,
// each sent on both connections at the same due time.
const (
	servePoolSize   = 48   // distinct pool specs
	serveCacheSize  = 16   // wardserve -cache: a third of the pool
	serveZipfS      = 1.1  // popularity skew over the pool
	serveFreshShare = 0.04 // arrivals that are fresh specs (each sent twice)
	freshScale      = 10   // a fresh spec runs this many times a pool spec's phases
	serveRate       = 500  // fixed arrival rate, arrivals per second
	fixedReps       = 7    // repetitions of the fixed-rate phase
	serveConns      = 2    // load-generating connections
	setupSpawns     = 3    // spawns timed before each phase; the fastest is its set-up time

	// hitLimitMs is the hit_p99_ms limit a ladder rung must meet.
	hitLimitMs = 100.0
	// ladderRungs is the number of rungs on the ladder; each is measured
	// for an equal share of the ladder's seconds.
	ladderRungs = 7
	// fixedShare is the share of the run's seconds the fixed-rate phase
	// takes; the ladder gets the rest.
	fixedShare = 0.7

	// failedLatencyMs is the latency recorded for a failed or refused
	// request: it misses every limit.
	failedLatencyMs = 60000.0
)

// mixSpec is one generated scenario spec with its expected answer.
type mixSpec struct {
	body     []byte
	fp       string
	expected []byte // the in-process result document
	phases   int
}

// mixKinds fixes the shape of the spec pool and of the fresh specs: spec i
// has kind i mod len(mixKinds), so the popular ranks have the same family
// and engine under every seed and only their parameters vary with it.
var mixKinds = []struct {
	family          string
	count, timeline bool
}{
	{"pigou", false, false}, {"braess", true, false}, {"links", false, false}, {"grid", true, false},
	{"kink", false, false}, {"braess", false, true}, {"links", true, false}, {"grid", false, false},
	{"pigou", true, false}, {"kink", true, false},
}

// genScenarioSpec draws one small scenario spec of the given kind: the
// pigou, braess, links, grid and kink families on the fluid or count
// engine, or a braess-onset style timeline spec. Its run is scale times
// the pool's length in phases.
func genScenarioSpec(r *splitMix, name string, kind, scale int) []byte {
	k := mixKinds[kind%len(mixKinds)]
	doc := map[string]any{"name": name}
	if k.timeline {
		doc["topology"] = map[string]any{"family": "braess"}
		doc["policy"] = map[string]any{"kind": "uniform"}
		doc["updatePeriod"] = 0.25
		doc["horizon"] = 24 * scale
		doc["timeline"] = map[string]any{"events": []any{
			map[string]any{"at": 0, "action": "block", "from": "a", "to": "b", "penalty": 2 + r.intn(4)},
			map[string]any{"at": 8 + r.intn(5), "action": "restore", "from": "a", "to": "b"},
		}}
		return mustJSON(doc)
	}
	switch k.family {
	case "links":
		doc["topology"] = map[string]any{"family": "links", "size": 4 + r.intn(2)}
	case "grid":
		doc["topology"] = map[string]any{"family": "grid", "size": 3}
	case "kink":
		doc["topology"] = map[string]any{"family": "kink", "beta": []float64{1, 2}[r.intn(2)]}
	default:
		doc["topology"] = map[string]any{"family": k.family}
	}
	doc["policy"] = map[string]any{"kind": []string{"replicator", "uniform"}[r.intn(2)]}
	if r.intn(2) == 0 {
		doc["updatePeriod"] = "safe"
	} else {
		doc["updatePeriod"] = 0.1
	}
	phases := (36 + r.intn(9)) * scale
	if k.count {
		doc["engine"] = map[string]any{"kind": "count", "n": 10000 * (1 + r.intn(5)), "seed": 1 + r.intn(1<<20)}
		// A count-engine phase on these small graphs costs a fraction of a
		// fluid one; four times the phases keeps its run comparable.
		phases *= 4
	}
	doc["maxPhases"] = phases
	if r.intn(3) == 0 {
		doc["start"] = "skewed"
	}
	if r.intn(4) == 0 {
		doc["delta"], doc["eps"] = 0.05, 0.05
	}
	return mustJSON(doc)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // generated documents are plain maps
	}
	return b
}

// expect parses the spec in process and computes its fingerprint and the
// result document a correct server answers with: Spec.Run followed by
// EncodeRunResult, the same path `wardsim -scenario -json` takes.
func expect(body []byte) (*mixSpec, error) {
	sp, err := scenario.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("generated spec rejected: %w (%s)", err, body)
	}
	fp, err := sp.Fingerprint()
	if err != nil {
		return nil, err
	}
	res, events, err := sp.Run(context.Background(), nil)
	if err != nil {
		return nil, fmt.Errorf("generated spec failed: %w (%s)", err, body)
	}
	var buf bytes.Buffer
	if err := wardrop.EncodeRunResult(&buf, sp, res, events); err != nil {
		return nil, err
	}
	return &mixSpec{body: body, fp: fp, expected: buf.Bytes(), phases: res.Phases}, nil
}

// arrival is one scheduled request and what became of it.
type arrival struct {
	due   time.Duration   // offset from the phase start
	conn  int             // the connection that sends it
	spec  *mixSpec        // pool spec; nil for a fresh one
	fresh int             // index into the fresh list, -1 for pool requests
	pair  *sync.WaitGroup // a fresh spec's copies are sent together

	// outcome
	sent, done time.Time
	status     int
	tier       string
	fp         string
	body       []byte
	err        error
}

// mixLoad generates the seeded traffic of serve-mix phases.
type mixLoad struct {
	rng   splitMix
	seed  uint64
	pool  []*mixSpec
	zipf  *zipf
	fresh [][]byte // fresh spec bodies in generation order
	drawn int      // arrivals scheduled so far
}

func newMixLoad(seed uint64) (*mixLoad, error) {
	l := &mixLoad{rng: splitMix{state: seed ^ 0x5e7e}, seed: seed, zipf: newZipf(servePoolSize, serveZipfS)}
	seen := map[string]bool{}
	for i := 0; len(l.pool) < servePoolSize; i++ {
		ms, err := expect(genScenarioSpec(&l.rng, fmt.Sprintf("pool-%d", i), len(l.pool), 1))
		if err != nil {
			return nil, err
		}
		if !seen[ms.fp] {
			seen[ms.fp] = true
			l.pool = append(l.pool, ms)
		}
	}
	return l, nil
}

// schedule draws Poisson arrivals at rate per second over d: pool repeats,
// each on a connection drawn at random, and fresh specs, each as one
// request per connection with one due time. Fresh specs are every
// 1/serveFreshShare-th arrival rather than a random share, because their
// engine runs are most of the server's work: a random count of them would
// move the CPU per request from run to run more than the program does.
func (l *mixLoad) schedule(rate float64, d time.Duration) []*arrival {
	var out []*arrival
	t := 0.0
	for {
		t += l.rng.exp(rate)
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		l.drawn++
		if int(float64(l.drawn)*serveFreshShare) > int(float64(l.drawn-1)*serveFreshShare) {
			idx := len(l.fresh)
			l.fresh = append(l.fresh, genScenarioSpec(&l.rng, fmt.Sprintf("fresh-%d-%d", l.seed, idx), idx, freshScale))
			pair := new(sync.WaitGroup)
			pair.Add(serveConns)
			for c := 0; c < serveConns; c++ {
				out = append(out, &arrival{due: due, conn: c, fresh: idx, pair: pair})
			}
			continue
		}
		spec := l.pool[l.zipf.draw(&l.rng)]
		out = append(out, &arrival{due: due, conn: l.rng.intn(serveConns), spec: spec, fresh: -1})
	}
}

func (l *mixLoad) bodyOf(a *arrival) []byte {
	if a.fresh >= 0 {
		return l.fresh[a.fresh]
	}
	return a.spec.body
}

// drive sends the arrivals, each connection its own in due order: it
// sleeps until an arrival's due time and waits for the answer, an open loop
// whose backlog shows as lateness. The copies of a fresh spec wait for each
// other and go out on every connection at once, so the server runs them
// side by side. drive returns the phase start and the time the last answer
// arrived.
func (l *mixLoad) drive(base string, arrivals []*arrival, tr *tracer) (start, end time.Time) {
	start = time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for i, a := range arrivals {
				if a.conn != c {
					continue
				}
				waitUntil(start.Add(a.due))
				if a.pair != nil {
					a.pair.Done()
					a.pair.Wait()
				}
				sp := tr.begin("http.post_scenario", fmt.Sprintf("r%d", i), 0)
				a.sent = time.Now()
				a.status, a.tier, a.fp, a.body, a.err = post(client, base+"/v1/scenarios", l.bodyOf(a))
				a.done = time.Now()
				sp.end()
			}
		}()
	}
	wg.Wait()
	for _, a := range arrivals {
		if a.done.After(end) {
			end = a.done
		}
	}
	return start, end
}

// waitUntil returns at t. It sleeps in the kernel, whose timers are
// precise to tens of microseconds; the runtime's sleep can wake up to a
// millisecond late, and spinning would take CPU from the server.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}

// post sends one scenario request and reads the whole answer.
func post(client *http.Client, url string, body []byte) (status int, tier, fp string, resp []byte, err error) {
	r, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", "", nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, r.Header.Get("X-Cache"), r.Header.Get("X-Fingerprint"), resp, err
}

// phaseStats summarises one driven phase.
type phaseStats struct {
	hitMs, missMs, lagMs []float64
	completed, failed    int
	phases               int
	freshSpecs           map[int]bool
}

// verify checks every answer of a phase against the in-process result and
// splits latencies (from the due time) by cache tier. Fresh specs are run
// in process here, after the timed phase, so checking costs no load.
func (l *mixLoad) verify(start time.Time, arrivals []*arrival, freshExp map[int]*mixSpec) (phaseStats, error) {
	st := phaseStats{freshSpecs: map[int]bool{}}
	for _, a := range arrivals {
		exp := a.spec
		if a.fresh >= 0 {
			st.freshSpecs[a.fresh] = true
			if exp = freshExp[a.fresh]; exp == nil {
				var err error
				if exp, err = expect(l.fresh[a.fresh]); err != nil {
					return st, err
				}
				freshExp[a.fresh] = exp
			}
		}
		due := start.Add(a.due)
		st.lagMs = append(st.lagMs, durMs(a.sent.Sub(due)))
		if a.err != nil || a.status != http.StatusOK {
			// A failed or refused request misses every latency limit.
			st.failed++
			if a.fresh >= 0 {
				st.missMs = append(st.missMs, failedLatencyMs)
			} else {
				st.hitMs = append(st.hitMs, failedLatencyMs)
			}
			continue
		}
		if !bytes.Equal(a.body, exp.expected) {
			return st, gateFail("serve-mix: answer for %s differs from in-process Spec.Run + EncodeRunResult", exp.fp)
		}
		if a.fp != exp.fp {
			return st, gateFail("serve-mix: X-Fingerprint %q, want Spec.Fingerprint %q", a.fp, exp.fp)
		}
		lat := durMs(a.done.Sub(due))
		switch a.tier {
		case serve.TierHit, serve.TierHitStore:
			st.hitMs = append(st.hitMs, lat)
		case serve.TierMiss:
			st.missMs = append(st.missMs, lat)
		default:
			return st, gateFail("serve-mix: unknown X-Cache %q", a.tier)
		}
		st.completed++
		st.phases += exp.phases
	}
	return st, nil
}

// rungResult is one measured rate of the ladder.
type rungResult struct {
	rate, p99 float64
	ok        bool
}

// ladderMax is the highest rate that meets the limit: the last passing
// rung before the failing rungs that end the ladder, interpolated towards
// the first of them. A rung failed by noise and followed by a passing one
// does not end the search. It is 0 when the fixed rate itself fails.
func ladderMax(rungs []rungResult) float64 {
	f := len(rungs)
	for f > 0 && !rungs[f-1].ok {
		f--
	}
	switch {
	case f == 0:
		return 0
	case f == len(rungs):
		return rungs[f-1].rate
	}
	return crossing(rungs[f-1], rungs[f])
}

// crossing is the rate at which the hit p99 reaches hitLimitMs, interpolated
// on log scales between the highest passing rung and the lowest failing one
// above it. A rung that failed by failures or backlog while its p99 met the
// limit counts as twice the limit.
func crossing(lo, hi rungResult) float64 {
	pHi := hi.p99
	if pHi <= hitLimitMs {
		pHi = 2 * hitLimitMs
	}
	pLo := max(lo.p99, 1e-3)
	x := (math.Log(hitLimitMs) - math.Log(pLo)) / (math.Log(pHi) - math.Log(pLo))
	x = min(max(x, 0), 1)
	return lo.rate * math.Pow(hi.rate/lo.rate, x)
}

// windowP99 is the median of the hit p99s of the phase's three
// consecutive thirds, so one stall of the machine does not decide a rung.
func (st phaseStats) windowP99() float64 {
	n := len(st.hitMs)
	if n < 3 {
		return failedLatencyMs
	}
	var w []float64
	for i := 0; i < 3; i++ {
		w = append(w, percentile(st.hitMs[i*n/3:(i+1)*n/3], 0.99))
	}
	return median(w)
}

// passes reports whether a ladder rung met the hit latency limit with no
// failures and no growing lateness (the last third of the sends ran no
// later than the limit allows).
func (st phaseStats) passes() bool {
	if st.failed > 0 || st.windowP99() > hitLimitMs {
		return false
	}
	tail := st.lagMs[len(st.lagMs)*2/3:]
	return percentile(tail, 0.5) <= hitLimitMs/2
}

// serveMixFlags are the served child's flags: a durable store in dir and
// an in-memory cache smaller than the spec pool.
func serveMixFlags(dir string) []string {
	return []string{"-store", filepath.Join(dir, "store"), "-cache", fmt.Sprint(serveCacheSize)}
}

// phaseSetup starts setupSpawns more wardserve children with the given
// flags, one after another, and stops each once ready. It returns the
// fastest spawn-to-ready time, and all of them. The rest of the machine only
// ever adds time, so the fastest of a few back-to-back spawns is the
// set-up's own cost; setup_s is the median over the phases, whose set-ups
// are spread over the run (while the served child idles) because the
// machine's speed drifts over seconds.
func phaseSetup(binDir string, flags []string) (best float64, all []float64, err error) {
	for i := 0; i < setupSpawns; i++ {
		s, d, err := startServer(binDir, flags...)
		if err != nil {
			return 0, nil, err
		}
		s.stop()
		all = append(all, d.Seconds())
	}
	return slices.Min(all), all, nil
}

// warm posts every pool spec once, so timed repeats are cache or store hits.
func (l *mixLoad) warm(base string) error {
	client := newClient()
	defer client.CloseIdleConnections()
	for _, ms := range l.pool {
		status, _, _, body, err := post(client, base+"/v1/scenarios", ms.body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up request failed: status %d: %v", status, err)
		}
		if !bytes.Equal(body, ms.expected) {
			return gateFail("serve-mix: warm-up answer for %s differs from in-process result", ms.fp)
		}
	}
	return nil
}

func runServeMix(cfg runConfig, out *outcome) error {
	dir, err := os.MkdirTemp(cfg.TmpDir, "serve-mix-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	load, err := newMixLoad(cfg.Seed)
	if err != nil {
		return err
	}
	srv, d, err := startServer(cfg.BinDir, serveMixFlags(dir)...)
	if err != nil {
		return err
	}
	// The served child's spawn, which creates the store, is kept as a raw
	// sample only. The set-ups open a store of their own, so each starts
	// on the same near-empty store whatever the served child wrote: opening
	// a store counts its objects.
	spawns := []float64{d.Seconds()}
	var setups []float64
	setupFlags := serveMixFlags(filepath.Join(dir, "setup"))
	moreSetups := func() error {
		best, all, err := phaseSetup(cfg.BinDir, setupFlags)
		setups = append(setups, best)
		spawns = append(spawns, all...)
		return err
	}
	if err := load.warm(srv.URL); err != nil {
		return err
	}
	freshExp := map[int]*mixSpec{}

	// The fixed-rate phase gives the latency metrics. It runs as
	// fixedReps back-to-back repetitions; each percentile, and the server's
	// CPU per request, is the median over the repetitions, so one stall of
	// the machine moves it less than it would move a pooled figure.
	fixed := time.Duration(cfg.Seconds * fixedShare / fixedReps * float64(time.Second))
	var hitGroups, missGroups [][]float64
	var lagMs []float64
	var wallS float64 // phase start to last answer, summed over repetitions
	var cpuUs []float64
	completed, phases, requests := 0, 0, 0
	var st phaseStats
	for rep := 0; rep < fixedReps; rep++ {
		if err := moreSetups(); err != nil {
			return err
		}
		cpu0, err := cpuSeconds(srv.Pid)
		if err != nil {
			return err
		}
		arr := load.schedule(serveRate, fixed)
		start, end := load.drive(srv.URL, arr, nil)
		wallS += end.Sub(start).Seconds()
		st, err = load.verify(start, arr, freshExp)
		if err != nil {
			return err
		}
		cpu1, err := cpuSeconds(srv.Pid)
		if err != nil {
			return err
		}
		cpuUs = append(cpuUs, 1e6*(cpu1-cpu0)/float64(len(arr)))
		out.count(int64(len(arr)), int64(st.failed))
		hitGroups = append(hitGroups, st.hitMs)
		missGroups = append(missGroups, st.missMs)
		lagMs = append(lagMs, st.lagMs...)
		completed += st.completed
		phases += st.phases
		requests += len(arr)
	}
	rss, err := peakRSSMB(srv.Pid)
	if err != nil {
		return err
	}

	// The ladder is fixed: rates from 1.25 times the fixed rate up in
	// steps of 2^(1/3), each rung measured for an equal share of the
	// ladder's seconds, until two rungs in a row fail.
	rung := time.Duration(cfg.Seconds * (1 - fixedShare) / ladderRungs * float64(time.Second))
	rungs := []rungResult{{rate: serveRate, p99: st.windowP99(), ok: st.passes()}}
	for k := 0; k < ladderRungs; k++ {
		if err := moreSetups(); err != nil {
			return err
		}
		rate := 1.25 * serveRate * math.Pow(2, float64(k)/3)
		arr := load.schedule(rate, rung)
		start, _ := load.drive(srv.URL, arr, nil)
		rs, err := load.verify(start, arr, freshExp)
		if err != nil {
			return err
		}
		out.count(int64(len(arr)), int64(rs.failed))
		rungs = append(rungs, rungResult{rate: rate, p99: rs.windowP99(), ok: rs.passes()})
		out.sample("ladder.rate", rate)
		out.sample("ladder.hit_p99_ms", rs.windowP99())
		if n := len(rungs); !rungs[n-1].ok && !rungs[n-2].ok {
			break
		}
	}
	maxRate := ladderMax(rungs)

	out.set("setup_s", median(setups))
	out.sample("setup_s", setups...)
	out.sample("spawn_s", spawns...)
	setLatencies(out, hitGroups, missGroups)
	out.set("max_rate_rps", maxRate)
	out.set("tasks_per_s", float64(completed)/wallS)
	out.set("phases_per_s", float64(phases)/wallS)
	out.set("peak_rss_mb", rss)
	out.set("cpu_us_per_op", median(cpuUs))
	out.sample("cpu_us_per_op", cpuUs...)
	out.sample("send_lag_ms", lagMs...)
	out.Notes["send_lag_p99_ms"] = fmt.Sprintf("%.3f", percentile(lagMs, 0.99))
	fmt.Fprintf(os.Stderr, "perfbench: serve-mix fixed %d/s: %d requests, send lag p50 %.3f ms p99 %.3f ms; max rate %.0f/s\n",
		serveRate, requests, percentile(lagMs, 0.5), percentile(lagMs, 0.99), maxRate)
	return nil
}

// setLatencies reports the hit and miss latency metrics: each percentile
// is the median over the run's repetitions of that repetition's percentile.
func setLatencies(out *outcome, hitGroups, missGroups [][]float64) {
	groupPct := func(groups [][]float64, p float64) float64 {
		var xs []float64
		for _, g := range groups {
			if len(g) > 0 {
				xs = append(xs, percentile(g, p))
			}
		}
		return median(xs)
	}
	out.set("hit_p50_ms", groupPct(hitGroups, 0.5))
	out.set("hit_p99_ms", groupPct(hitGroups, 0.99))
	out.set("miss_p50_ms", groupPct(missGroups, 0.5))
	out.set("miss_p99_ms", groupPct(missGroups, 0.99))
	for _, g := range hitGroups {
		out.sample("hit_ms", g...)
	}
	for _, g := range missGroups {
		out.sample("miss_ms", g...)
	}
}

// traceServeMix measures the serving layers: the fixed-rate loop against a
// child with its Prometheus instruments scraped around it, then each layer
// of the request path called in process on the pool specs.
func traceServeMix(cfg runConfig, out *outcome) error {
	tr := cfg.tr
	dir, err := os.MkdirTemp(cfg.TmpDir, "serve-mix-trace-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	load, err := newMixLoad(cfg.Seed)
	if err != nil {
		return err
	}
	srv, _, err := startServer(cfg.BinDir, serveMixFlags(dir)...)
	if err != nil {
		return err
	}
	if err := load.warm(srv.URL); err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	before, err := scrapeProm(client, srv.URL)
	if err != nil {
		return err
	}
	cpu0, err := cpuSeconds(srv.Pid)
	if err != nil {
		return err
	}
	d := time.Duration(cfg.Seconds / 2 * float64(time.Second))
	arr := load.schedule(serveRate, d)
	start, _ := load.drive(srv.URL, arr, tr)
	cpu1, err := cpuSeconds(srv.Pid)
	if err != nil {
		return err
	}
	after, err := scrapeProm(client, srv.URL)
	if err != nil {
		return err
	}
	st, err := load.verify(start, arr, map[int]*mixSpec{})
	if err != nil {
		return err
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	histMean := func(name string) float64 {
		n := delta(name + "_count")
		if n == 0 {
			return 0
		}
		return delta(name+"_sum") / n
	}
	out.set("serve.cache_lookup_us", 1000*histMean("serve_cache_lookup_ms"))
	out.set("serve.queue_wait_ms", histMean("serve_queue_wait_ms"))
	if h := delta("serve_cache_hits_total"); h > 0 {
		out.set("serve.store_hit_share", delta("serve_store_hits_total")/h)
	} else {
		out.set("serve.store_hit_share", 0)
	}
	out.set("serve.engine_runs_per_fresh_spec", delta("serve_engine_runs_total")/float64(max(len(st.freshSpecs), 1)))
	out.set("serve.cpu_us_per_req", 1e6*(cpu1-cpu0)/float64(len(arr)))
	out.set("serve.send_lag_p99_ms", percentile(st.lagMs, 0.99))

	// Client-observed hit time, from send (not due) to the last byte.
	var hitRTT []float64
	for _, a := range arr {
		if a.err == nil && (a.tier == serve.TierHit || a.tier == serve.TierHitStore) {
			hitRTT = append(hitRTT, float64(a.done.Sub(a.sent).Microseconds()))
		}
	}
	handlerUs, allocs, err := handlerHitProbe(load, dir, tr)
	if err != nil {
		return err
	}
	out.set("serve.handler_hit_us", handlerUs)
	out.set("serve.handler_hit_allocs", allocs)
	out.set("serve.transport_us", median(hitRTT)-handlerUs)
	out.sample("serve.client_hit_us", hitRTT...)
	return layerProbe(load, dir, cfg.Seconds/2, tr, out)
}

// handlerHitProbe times cached hits through Server.ServeHTTP in process
// (no TCP) and counts their allocations.
func handlerHitProbe(load *mixLoad, dir string, tr *tracer) (medianUs, allocsPerHit float64, err error) {
	srv := serve.New(serve.Config{Workers: 1, CacheEntries: 2 * servePoolSize})
	defer srv.Close(context.Background())
	call := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scenarios", bytes.NewReader(body)))
		return rec
	}
	for _, ms := range load.pool {
		if rec := call(ms.body); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), ms.expected) {
			return 0, 0, gateFail("serve-mix: in-process handler answer for %s differs", ms.fp)
		}
	}
	const rounds = 20
	var times []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < rounds; r++ {
		for i, ms := range load.pool {
			sp := tr.begin("serve.ServeHTTP", fmt.Sprintf("h%d-%d", r, i), 0)
			t0 := time.Now()
			rec := call(ms.body)
			times = append(times, float64(time.Since(t0).Nanoseconds())/1e3)
			sp.end()
			if rec.Header().Get("X-Cache") != serve.TierHit {
				return 0, 0, gateFail("serve-mix: repeated in-process request was not a hit")
			}
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(rounds * len(load.pool))
	return median(times), float64(m1.Mallocs-m0.Mallocs) / n, nil
}

// layerProbe calls each layer of the request path in process on the pool
// specs, one span per call under a request span: parse, fingerprint, store
// get, materialize, engine run, encode and store put.
func layerProbe(load *mixLoad, dir string, seconds float64, tr *tracer, out *outcome) error {
	st, err := store.Open(filepath.Join(dir, "probe-store"), store.Options{})
	if err != nil {
		return err
	}
	var parse, fprint, get, mat, run, enc, put []float64
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for i, ms := range load.pool {
			req := fmt.Sprintf("p%d-%d", round, i)
			root := tr.begin("bench.request", req, 0)
			sp := tr.begin("scenario.parse", req, root.id)
			spec, err := scenario.Parse(bytes.NewReader(ms.body))
			parse = append(parse, us(sp.end()))
			if err != nil {
				return err
			}
			sp = tr.begin("canon.fingerprint", req, root.id)
			fp, err := spec.Fingerprint()
			fprint = append(fprint, us(sp.end()))
			if err != nil || fp != ms.fp {
				return gateFail("serve-mix: fingerprint of %s changed in process", ms.fp)
			}
			if round == 0 {
				sp = tr.begin("store.put", req, root.id)
				err = st.Put(fp, ms.expected)
				put = append(put, us(sp.end()))
				if err != nil {
					return err
				}
			} else {
				sp = tr.begin("store.get", req, root.id)
				doc, err := st.Get(fp)
				get = append(get, us(sp.end()))
				if err != nil || !bytes.Equal(doc, ms.expected) {
					return gateFail("serve-mix: store returned a different document for %s", fp)
				}
			}
			if spec.Timeline.NeedsProgram() {
				root.end()
				continue
			}
			sp = tr.begin("scenario.materialize", req, root.id)
			sc, err := spec.Scenario()
			mat = append(mat, us(sp.end()))
			if err != nil {
				return err
			}
			sp = tr.begin("engine.run", req, root.id)
			res, err := engine.Run(context.Background(), sc)
			run = append(run, us(sp.end()))
			if err != nil {
				return err
			}
			sp = tr.begin("scenario.encode", req, root.id)
			var buf bytes.Buffer
			doc, err := scenario.NewRunResult(spec, res, nil)
			if err == nil {
				err = doc.Encode(&buf)
			}
			enc = append(enc, us(sp.end()))
			if err != nil || !bytes.Equal(buf.Bytes(), ms.expected) {
				return gateFail("serve-mix: in-process encode of %s differs", fp)
			}
			root.end()
		}
	}
	out.set("scenario.parse_us", median(parse))
	out.set("canon.fingerprint_us", median(fprint))
	out.set("store.get_us", median(get))
	out.set("scenario.materialize_us", median(mat))
	out.set("engine.run_us", median(run))
	out.set("scenario.encode_us", median(enc))
	out.set("store.put_us", median(put))
	return nil
}
