// Command perfbench is the repository's benchmark. It runs one of four
// seeded workloads against the program built from this checkout and prints
// the workload's metrics, each by name with its unit and better direction:
//
//	serve-mix   open-loop Poisson traffic against a wardserve child process
//	campaign    a local sweep over a mixed campaign on the sweep pool
//	fleet       a distributed sweep over two wardserve children sharing a store
//	largegraph  one fluid scenario on a ~10⁵-edge scale-free graph
//
// With -trace 0 it measures the end-to-end metrics named in BENCHMARK.json;
// with -trace 1 it measures the per-layer metrics instead, by timing calls
// into each package from this benchmark's own code, scraping the servers'
// Prometheus instruments, and writing every recorded span to a JSONL file.
// Every run checks the program's outputs; a wrong output fails the run,
// which then reports no numbers and exits non-zero.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Each run also writes a result file (metadata, metrics, raw samples) that
// `perfbench compare OLD NEW` reads. Usage:
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare old-results/ new-results/
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Traced   bool
	BinDir   string // holds the wardserve binary built from this checkout
	TmpDir   string // scratch space inside the checkout (stores, spans)

	// tr records spans in a traced run; nil otherwise.
	tr *tracer
}

// gateError is a failed correctness gate: the program produced a wrong
// output, so the run reports no numbers.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "correctness gate failed: " + e.msg }

func gateFail(format string, args ...any) error {
	return &gateError{msg: fmt.Sprintf(format, args...)}
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(cfg runConfig, out *outcome) error
}{
	"serve-mix":  {runServeMix, traceServeMix},
	"campaign":   {runCampaign, traceCampaign},
	"fleet":      {runFleet, traceFleet},
	"largegraph": {runLargeGraph, traceLargeGraph},
}

// buildDir holds, under the checkout root the benchmark runs from, the
// binaries run.sh builds, scratch stores, span files and result files.
const buildDir = ".bench_build"

// minTracedSeconds is the shortest measured time a traced sub-run gets.
const minTracedSeconds = 2

// workloadOrder is the order the traced run visits every workload in.
var workloadOrder = []string{"serve-mix", "campaign", "fleet", "largegraph"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: serve-mix, campaign, fleet or largegraph")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (serve-mix|campaign|fleet|largegraph), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Traced:   *trace == 1,
		BinDir:   filepath.Join(buildDir, "bin"),
		TmpDir:   filepath.Join(buildDir, "tmp"),
	}
	if err := os.MkdirAll(cfg.TmpDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	stopOnSignal()
	defer stopChildren()

	out := newOutcome()
	start := time.Now()
	if cfg.Traced {
		// The traced run covers every layer, so each traced run reports the
		// full per-layer set; the named workload only labels the run.
		tr := newTracer()
		for _, name := range workloadOrder {
			sub := cfg
			sub.Workload = name
			sub.Seconds = max(cfg.Seconds/float64(len(workloadOrder)), minTracedSeconds)
			sub.tr = tr
			if err = workloads[name].trace(sub, out); err != nil {
				break
			}
		}
		if err == nil {
			err = finishTrace(tr, cfg, out)
		}
	} else {
		err = w.run(cfg, out)
	}
	stopChildren()
	wall := time.Since(start)

	var gate *gateError
	switch {
	case errors.As(err, &gate):
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		printFinal(os.Stdout, false, out, nil)
		return 1
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := spec.EndToEnd
	if cfg.Traced {
		defs = spec.PerLayer
	}
	metrics, err := out.resolve(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printHuman(os.Stdout, cfg, out, defs, metrics)
	path, err := writeResult(filepath.Join(buildDir, "results"), cfg, out, defs, metrics, wall)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result file:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "perfbench: result file", path)
	printFinal(os.Stdout, true, out, metrics)
	return 0
}

// stopOnSignal stops every child process when the benchmark is interrupted.
func stopOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		stopChildren()
		os.Exit(130)
	}()
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printFinal writes the machine-readable last line. A failed gate reports
// no metrics.
func printFinal(w io.Writer, correct bool, out *outcome, metrics map[string]metricValue) {
	if metrics == nil {
		metrics = map[string]metricValue{}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, max(out.Attempted, 1), out.Failed, metrics})
	fmt.Fprintln(w, string(line))
}

// printHuman writes one line per metric with its unit and direction.
func printHuman(w io.Writer, cfg runConfig, out *outcome, defs []metricDef, metrics map[string]metricValue) {
	mode := "end-to-end"
	if cfg.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g %s: attempted=%d failed=%d\n",
		cfg.Workload, cfg.Seed, cfg.Seconds, mode, out.Attempted, out.Failed)
	for _, d := range defs {
		m := metrics[d.Name]
		fmt.Fprintf(w, "%-36s %14.6g %-6s (%s is better)\n", d.Name, m.Value, m.Unit, d.Better)
	}
	units := map[string]metricDef{}
	for _, d := range ungatedDefs {
		units[d.Name] = d
	}
	for _, name := range sortedKeys(out.reported(defs)) {
		d := units[name]
		fmt.Fprintf(w, "%-36s %14.6g %-6s (%s is better; not gated)\n", name, out.values[name], d.Unit, d.Better)
	}
}

// writeResult records the run: metadata, metrics and the raw samples
// behind them, so spread and history survive beyond the medians.
func writeResult(dir string, cfg runConfig, out *outcome, defs []metricDef, metrics map[string]metricValue, wall time.Duration) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	trace := 0
	if cfg.Traced {
		trace = 1
	}
	doc := resultFile{
		Schema:    resultSchema,
		Meta:      collectMeta(cfg),
		Workload:  cfg.Workload,
		Seed:      cfg.Seed,
		Trace:     trace,
		Seconds:   cfg.Seconds,
		WallS:     wall.Seconds(),
		Correct:   true,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   metrics,
		Reported:  out.reported(defs),
		Samples:   out.Samples,
		Notes:     out.Notes,
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", cfg.Workload, cfg.Seed, trace, time.Now().UnixNano())
	path := filepath.Join(dir, name)
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
