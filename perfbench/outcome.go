package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// names, units, directions and bounds have one definition, there.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// ungatedDefs are end-to-end metrics every untraced run measures and
// records but BENCHMARK.json does not gate: their run-to-run spread on the
// machine the benchmark was written on exceeded the largest bound allowed.
// Compare mode judges them like per-layer metrics, without a bound.
var ungatedDefs = []metricDef{
	{Name: "hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "hit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "miss_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "max_rate_rps", Unit: "1/s", Better: "higher"},
}

// specFile is the benchmark definition, at the checkout root.
const specFile = "BENCHMARK.json"

func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile(specFile)
	if err != nil {
		return nil, fmt.Errorf("benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("benchmark definition %s: %w", specFile, err)
	}
	return &s, nil
}

// outcome accumulates what a run measured: metric values by name, the raw
// samples behind them, and operations attempted and failed.
type outcome struct {
	Attempted, Failed int64
	values            map[string]float64
	Samples           map[string][]float64
	Notes             map[string]string
}

func newOutcome() *outcome {
	return &outcome{
		values:  map[string]float64{},
		Samples: map[string][]float64{},
		Notes:   map[string]string{},
	}
}

// set records a metric value.
func (o *outcome) set(name string, v float64) { o.values[name] = v }

// sample keeps raw samples under name for the result file.
func (o *outcome) sample(name string, vs ...float64) {
	o.Samples[name] = append(o.Samples[name], vs...)
}

// count adds operations attempted and failed.
func (o *outcome) count(attempted, failed int64) {
	o.Attempted += attempted
	o.Failed += failed
}

// resolve attaches units to the metrics the definition names. A defined
// metric the run did not measure, or a value that is not a finite number,
// is a benchmark bug.
func (o *outcome) resolve(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// reported returns the measured values the definition does not name —
// metrics kept in the result file and printed, but not gated.
func (o *outcome) reported(defs []metricDef) map[string]float64 {
	named := map[string]bool{}
	for _, d := range defs {
		named[d.Name] = true
	}
	out := map[string]float64{}
	for k, v := range o.values {
		if !named[k] {
			out[k] = v
		}
	}
	return out
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

const resultSchema = "wardrop/perfbench/v1"

// resultFile is one run's record on disk.
type resultFile struct {
	Schema    string                 `json:"schema"`
	Meta      runMeta                `json:"meta"`
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     int                    `json:"trace"`
	Seconds   float64                `json:"seconds"`
	WallS     float64                `json:"wallS"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Reported  map[string]float64     `json:"reported,omitempty"`
	Samples   map[string][]float64   `json:"samples"`
	Notes     map[string]string      `json:"notes,omitempty"`
}

// runMeta identifies the code and the machine a run measured.
type runMeta struct {
	Commit     string `json:"commit"`
	SourceHash string `json:"sourceSha256"`
	GoVersion  string `json:"goVersion"`
	CPUModel   string `json:"cpuModel"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
}

func collectMeta(cfg runConfig) runMeta {
	return runMeta{
		Commit:     commit(),
		SourceHash: sourceHash(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.Seed,
	}
}

// commit names the measured commit: git's HEAD, else "unknown" (a plain
// source export has no git metadata; the source hash still identifies the
// code).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash is the SHA-256 over the program's Go sources and go.mod in
// path order, which identifies the measured code without git.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || path == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
