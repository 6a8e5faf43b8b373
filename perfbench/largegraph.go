package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"wardrop/internal/dynamics"
	"wardrop/internal/engine"
	"wardrop/internal/flow"
	"wardrop/internal/obs"
	"wardrop/internal/policy"
	"wardrop/internal/scenario"
	"wardrop/internal/sweep"
)

// largegraph: one fluid scenario (replicator at the safe period) on a
// scale-free graph with ~10⁵ edges, run in process. The graph is above the
// evaluator's parallel crossover, so the flow kernel and the topology build
// dominate.
const (
	largeEdges  = 100000
	largePhases = 200 // phases per timed run
	largeSetups = 3   // set-ups per run; setup_s is their median
)

// largeSpec renders the seeded scenario document.
func largeSpec(seed uint64) []byte {
	return mustJSON(map[string]any{
		"name":         fmt.Sprintf("bench-largegraph-%d", seed),
		"topology":     map[string]any{"family": "scalefree", "size": largeEdges},
		"seed":         seed,
		"policy":       map[string]any{"kind": "replicator"},
		"updatePeriod": "safe",
		"maxPhases":    largePhases,
	})
}

// phaseChecker is the benchmark's observer: it timestamps every phase and
// checks the paper's invariants at the safe period — Φ non-increasing
// (Lemma 4), each commodity's flow conserved, every path flow non-negative.
// Its buffers are preallocated, so it adds no allocation per phase.
type phaseChecker struct {
	inst  *flow.Instance
	stamp []time.Time
	phi   []float64
	err   error
}

func newPhaseChecker(inst *flow.Instance, phases int) *phaseChecker {
	return &phaseChecker{inst: inst, stamp: make([]time.Time, 0, phases+1), phi: make([]float64, 0, phases+1)}
}

func (c *phaseChecker) reset() {
	c.stamp, c.phi, c.err = c.stamp[:0], c.phi[:0], nil
}

func (c *phaseChecker) ObservePhase(info dynamics.PhaseInfo) bool {
	c.stamp = append(c.stamp, time.Now())
	if c.err == nil {
		c.err = c.check(info)
	}
	c.phi = append(c.phi, info.Potential)
	return false
}

func (c *phaseChecker) check(info dynamics.PhaseInfo) error {
	if n := len(c.phi); n > 0 && info.Potential > c.phi[n-1]+1e-9*math.Abs(c.phi[n-1]) {
		return gateFail("largegraph: Φ rose from %.17g to %.17g at phase %d at the safe period (Lemma 4)",
			c.phi[n-1], info.Potential, info.Index)
	}
	for i := 0; i < c.inst.NumCommodities(); i++ {
		lo, hi := c.inst.CommodityRange(i)
		total := 0.0
		for g := lo; g < hi; g++ {
			if info.Flow[g] < -1e-12 {
				return gateFail("largegraph: negative flow %g on path %d at phase %d", info.Flow[g], g, info.Index)
			}
			total += info.Flow[g]
		}
		if d := c.inst.Commodity(i).Demand; math.Abs(total-d) > 1e-9*d {
			return gateFail("largegraph: commodity %d carries %.17g, demand %g, at phase %d", i, total, d, info.Index)
		}
	}
	return nil
}

// largeRun is one timed run of the scenario.
type largeRun struct {
	start, end time.Time
	cpuS       float64 // this process's CPU time during the run
	stamps     []time.Time
	finalPhi   float64
}

// phasesPerS is the run's phase rate from the first phase to the end.
func (r largeRun) phasesPerS() float64 {
	return float64(len(r.stamps)) / r.end.Sub(r.stamps[0]).Seconds()
}

// runLarge runs the scenario once with the checker (and any extra
// observers) attached.
func runLarge(sc engine.Scenario, chk *phaseChecker, ws *flow.Workspace, extra ...dynamics.Observer) (largeRun, error) {
	chk.reset()
	obsv := append([]dynamics.Observer{chk}, extra...)
	cpu0 := selfCPUSeconds()
	start := time.Now()
	res, err := engine.Run(context.Background(), sc, engine.WithWorkspace(ws), engine.WithObserver(obsv...))
	end := time.Now()
	cpuS := selfCPUSeconds() - cpu0
	if err != nil {
		return largeRun{}, err
	}
	if chk.err != nil {
		return largeRun{}, chk.err
	}
	if len(chk.stamp) != res.Phases {
		return largeRun{}, fmt.Errorf("largegraph: observed %d phases of %d", len(chk.stamp), res.Phases)
	}
	return largeRun{start: start, end: end, cpuS: cpuS, stamps: append([]time.Time(nil), chk.stamp...), finalPhi: res.FinalPotential}, nil
}

// largeSetup parses the spec and materialises the scenario (instance
// build, policy, safe period, start), returning the time to the first
// phase of a run on it, which includes the evaluator's compile.
func largeSetup(seed uint64, ws *flow.Workspace) (engine.Scenario, *phaseChecker, largeRun, time.Duration, error) {
	t0 := time.Now()
	spec, err := scenario.Parse(bytes.NewReader(largeSpec(seed)))
	if err != nil {
		return engine.Scenario{}, nil, largeRun{}, 0, err
	}
	sc, err := spec.Scenario()
	if err != nil {
		return engine.Scenario{}, nil, largeRun{}, 0, err
	}
	chk := newPhaseChecker(sc.Instance, largePhases)
	r, err := runLarge(sc, chk, ws)
	if err != nil {
		return engine.Scenario{}, nil, largeRun{}, 0, err
	}
	return sc, chk, r, r.stamps[0].Sub(t0), nil
}

// sameBits is the bit-identity gate on final potentials.
func sameBits(what string, a, b float64) error {
	if math.Float64bits(a) != math.Float64bits(b) {
		return gateFail("largegraph: final Φ %s: %.17g vs %.17g", what, a, b)
	}
	return nil
}

func runLargeGraph(cfg runConfig, out *outcome) error {
	ws := flow.NewWorkspace()
	var setups []float64
	var sc engine.Scenario
	var chk *phaseChecker
	var runs []largeRun
	for i := 0; i < largeSetups; i++ {
		// Release the previous instance before building the next one, so
		// peak memory is one instance's.
		sc, chk = engine.Scenario{}, nil
		runtime.GC()
		var r largeRun
		var setup time.Duration
		var err error
		sc, chk, r, setup, err = largeSetup(cfg.Seed, ws)
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		runs = append(runs, r)
	}
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for len(runs) < 3 || time.Now().Before(deadline) {
		r, err := runLarge(sc, chk, ws)
		if err != nil {
			return err
		}
		runs = append(runs, r)
	}
	// The same run with the program's span tracer attached must end on the
	// same Φ, bit for bit.
	traced, err := runLarge(sc, chk, ws, obs.NewTracer(largePhases+1))
	if err != nil {
		return err
	}
	for _, r := range runs {
		if err := sameBits("differs between runs", runs[0].finalPhi, r.finalPhi); err != nil {
			return err
		}
	}
	if err := sameBits("differs between traced and untraced runs", runs[0].finalPhi, traced.finalPhi); err != nil {
		return err
	}
	var rates, walls, coldMs, cpuUs []float64
	var phaseGroups [][]float64
	for _, r := range runs {
		rates = append(rates, r.phasesPerS())
		cpuUs = append(cpuUs, 1e6*r.cpuS/float64(len(r.stamps)))
		walls = append(walls, r.end.Sub(r.start).Seconds())
		coldMs = append(coldMs, durMs(r.stamps[0].Sub(r.start)))
		var phaseMs []float64
		for k := 1; k < len(r.stamps); k++ {
			phaseMs = append(phaseMs, durMs(r.stamps[k].Sub(r.stamps[k-1])))
		}
		phaseGroups = append(phaseGroups, append(phaseMs, durMs(r.end.Sub(r.stamps[len(r.stamps)-1]))))
	}
	// The first run of each set-up compiled the evaluator; the cold-phase
	// samples are the later runs', whose first phase starts on a compiled
	// kernel and a warm workspace.
	coldMs = coldMs[largeSetups:]
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	out.count(int64(len(runs)+1), 0)
	out.set("setup_s", median(setups))
	out.sample("setup_s", setups...)
	out.set("phases_per_s", median(rates))
	out.sample("phases_per_s", rates...)
	out.set("tasks_per_s", 1/median(walls))
	out.sample("run_s", walls...)
	// A closed loop of back-to-back runs runs at its highest sustainable rate.
	out.set("max_rate_rps", 1/median(walls))
	// Hits are phases on the compiled kernel, grouped by run; misses are a
	// run's cold first phase (engine set-up and the first evaluation), one
	// per run, pooled.
	setLatencies(out, phaseGroups, [][]float64{coldMs})
	// An operation is a phase here.
	out.set("cpu_us_per_op", median(cpuUs))
	out.sample("cpu_us_per_op", cpuUs...)
	out.set("peak_rss_mb", rss)
	fmt.Fprintf(os.Stderr, "perfbench: largegraph: %d paths, setups %v s, %d runs, %.1f phases/s\n",
		sc.Instance.NumPaths(), setups, len(runs), median(rates))
	return nil
}

// traceLargeGraph times the topology build, the evaluator compile and its
// parallel and serial passes, the phase loop under the benchmark observer,
// allocations per phase, and the cost of the program's own span tracer.
func traceLargeGraph(cfg runConfig, out *outcome) error {
	tr := cfg.tr
	req := fmt.Sprintf("largegraph%d", cfg.Seed)
	sp := tr.begin("topo.build", req, 0)
	top := sweep.Topology{Family: "scalefree", Size: largeEdges}
	inst, err := top.Build(cfg.Seed)
	buildD := sp.end()
	if err != nil {
		return err
	}
	out.set("topo.build_s", buildD.Seconds())

	ws := flow.NewWorkspace()
	f := inst.UniformFlow()
	sp = tr.begin("flow.compile", req, 0)
	ev := flow.NewEvaluator(inst, ws)
	ev.Eval(f)
	out.set("flow.compile_ms", durMs(sp.end()))

	evalUs := func(n int) float64 {
		var xs []float64
		for i := 0; i < n; i++ {
			s := tr.begin("flow.eval", req, 0)
			ev.Eval(f)
			xs = append(xs, float64(s.end().Nanoseconds())/1e3)
		}
		return median(xs)
	}
	par := evalUs(200)
	ev.SetParallelism(1)
	serial := evalUs(200)
	ev.SetParallelism(0)
	out.set("flow.eval_us", par)
	out.set("flow.eval_serial_us", serial)
	out.set("flow.par_speedup", serial/par)

	pol, err := sweep.PolicySpec{Kind: "replicator"}.Build(inst)
	if err != nil {
		return err
	}
	T, err := policy.SafeUpdatePeriodFor(pol, inst.Beta(), inst.MaxPathLen())
	if err != nil {
		return err
	}
	sc := engine.Scenario{Engine: engine.Fluid{}, Instance: inst, Policy: pol, UpdatePeriod: T,
		InitialFlow: inst.UniformFlow(), Horizon: largePhases * T}
	chk := newPhaseChecker(inst, largePhases)

	// Allocations per phase: the difference between a long and a short
	// run's allocations, over the difference in phases.
	allocs := func(phases int) (uint64, error) {
		s := sc
		s.Horizon = float64(phases) * T
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := runLarge(s, chk, ws)
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, err
	}
	short, err := allocs(20)
	if err != nil {
		return err
	}
	long, err := allocs(120)
	if err != nil {
		return err
	}
	out.set("engine.allocs_per_phase", (float64(long)-float64(short))/100)

	// Untraced and traced runs alternate; the traced ones carry the
	// program's obs.Tracer, whose phase spans go into the span file.
	var plain, traced, phaseUs []float64
	var phi []float64
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		root := tr.begin("engine.run", fmt.Sprintf("%s/run%d", req, i), 0)
		var r largeRun
		var tracer *obs.Tracer
		if i%2 == 0 {
			r, err = runLarge(sc, chk, ws)
		} else {
			tracer = obs.NewTracer(largePhases + 1)
			r, err = runLarge(sc, chk, ws, tracer)
		}
		root.end()
		if err != nil {
			return err
		}
		phi = append(phi, r.finalPhi)
		if tracer == nil {
			plain = append(plain, r.phasesPerS())
			for k := 1; k < len(r.stamps); k++ {
				phaseUs = append(phaseUs, float64(r.stamps[k].Sub(r.stamps[k-1]).Nanoseconds())/1e3)
			}
			continue
		}
		traced = append(traced, r.phasesPerS())
		for k, s := range tracer.Spans() {
			if k < len(r.stamps) {
				end := tr.since(r.stamps[k])
				tr.add(spanRec{Parent: root.id, Name: "dynamics.phase", Req: fmt.Sprintf("%s/run%d/phase%d", req, i, s.Phase),
					Start: end - s.WallNs, End: end})
			}
		}
	}
	for _, p := range phi {
		if err := sameBits("differs between traced and untraced runs", phi[0], p); err != nil {
			return err
		}
	}
	out.count(int64(len(phi)), 0)
	phase := median(phaseUs)
	out.set("dynamics.phase_us", phase)
	out.set("dynamics.phase_other_us", phase-par)
	out.set("obs.trace_overhead", 1-median(traced)/median(plain))
	return nil
}
