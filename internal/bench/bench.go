// Package bench measures the compiled evaluation kernel and the engines
// built on it, producing the machine-readable measurements wardbench writes
// to BENCH_kernel.json. The seed pipeline the kernel replaced survives only
// in this package's and internal/flow's test files, as a differential
// oracle and as the "reference" side of the go test benchmarks
// (TestReferenceFluidMatchesKernel pins the fluid engine to it bit for bit).
package bench

import (
	"context"
	"testing"

	"wardrop/internal/agents"
	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

// Measurement is one benchmark result destined for BENCH_kernel.json.
type Measurement struct {
	// Name identifies the workload, e.g. "fluid/grid/kernel".
	Name string `json:"name"`
	// NsPerOp is wall time per operation.
	NsPerOp float64 `json:"nsPerOp"`
	// AllocsPerOp and BytesPerOp are heap allocation counts per operation.
	AllocsPerOp int64 `json:"allocsPerOp"`
	BytesPerOp  int64 `json:"bytesPerOp"`
}

// measure runs fn under testing.Benchmark and records it.
func measure(name string, fn func(b *testing.B)) Measurement {
	r := testing.Benchmark(fn)
	return Measurement{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// GridWorkload is the shared fluid-dynamics benchmark workload: an n×n grid
// (monotone lattice paths) under replicator dynamics with a fixed board
// period.
type GridWorkload struct {
	Inst    *flow.Instance
	Pol     policy.Policy
	T       float64
	Horizon float64
	F0      flow.Vector
}

// NewGridWorkload builds the workload on an n×n grid.
func NewGridWorkload(n int) (*GridWorkload, error) {
	inst, err := topo.Grid(n)
	if err != nil {
		return nil, err
	}
	pol, err := policy.Replicator(inst.LMax())
	if err != nil {
		return nil, err
	}
	return &GridWorkload{
		Inst:    inst,
		Pol:     pol,
		T:       0.5,
		Horizon: 10,
		F0:      inst.SinglePathFlow(0),
	}, nil
}

// KernelFluid runs the workload on the fluid engine (compiled kernel,
// transposed rates, workspace scratch) and returns the final potential.
func (w *GridWorkload) KernelFluid(ws *flow.Workspace) (float64, error) {
	res, err := dynamics.Run(context.Background(), w.Inst, dynamics.Config{
		Policy:       w.Pol,
		UpdatePeriod: w.T,
		Horizon:      w.Horizon,
		Integrator:   dynamics.Uniformization,
		Workspace:    ws,
	}, w.F0)
	if err != nil {
		return 0, err
	}
	return res.FinalPotential, nil
}

// --- Suite ----------------------------------------------------------------

// KernelSuite runs the kernel benchmark suite and returns the
// measurements, named "<workload>/kernel" (and "agents/braess/run-kernel").
func KernelSuite(gridN int) ([]Measurement, error) {
	w, err := NewGridWorkload(gridN)
	if err != nil {
		return nil, err
	}
	inst := w.Inst

	var ms []Measurement

	// Full fluid runs on the engine.
	ws := flow.NewWorkspace()
	if _, err := w.KernelFluid(ws); err != nil {
		return nil, err
	}
	ms = append(ms, measure("fluid/grid/kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.KernelFluid(ws); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Full state evaluation.
	f := inst.UniformFlow()
	ev := flow.NewEvaluator(inst, nil)
	ms = append(ms, measure("eval/grid/kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.Eval(f)
			_ = ev.Potential()
		}
	}))

	// Sparse update (one two-path move): incremental ApplyDelta.
	lo, hi := inst.CommodityRange(0)
	p, q := lo, hi-1
	ev.Eval(f)
	ms = append(ms, measure("delta/grid/kernel", func(b *testing.B) {
		b.ReportAllocs()
		amt := f[p] / 2
		for i := 0; i < b.N; i++ {
			ev.ApplyDelta(f, p, q, amt)
			_ = ev.Potential()
			amt = -amt
		}
	}))

	// Sparse update on wide parallel links: every path is two edges deep
	// and shares nothing, the incremental regime the agent engine's
	// between-phase moves live in.
	links, err := topo.LinearParallelLinks(256)
	if err != nil {
		return nil, err
	}
	lf := links.UniformFlow()
	llo, lhi := links.CommodityRange(0)
	lev := flow.NewEvaluator(links, nil)
	lev.Eval(lf)
	_ = lev.Potential()
	ms = append(ms, measure("delta/links/kernel", func(b *testing.B) {
		b.ReportAllocs()
		amt := lf[llo] / 2
		for i := 0; i < b.N; i++ {
			lev.ApplyDelta(lf, llo, lhi-1, amt)
			_ = lev.Potential()
			amt = -amt
		}
	}))

	// Agent engine end-to-end run with workspace scratch.
	braess, err := topo.Braess()
	if err != nil {
		return nil, err
	}
	apol, err := policy.Replicator(braess.LMax())
	if err != nil {
		return nil, err
	}
	aws := flow.NewWorkspace()
	runAgents := func() error {
		sim, err := agents.New(braess, agents.Config{
			N: 2000, Policy: apol, UpdatePeriod: 0.25, Horizon: 10,
			Seed: 7, Workers: 1, Workspace: aws,
		})
		if err != nil {
			return err
		}
		_, err = sim.RunContext(context.Background())
		return err
	}
	if err := runAgents(); err != nil {
		return nil, err
	}
	ms = append(ms, measure("agents/braess/run-kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := runAgents(); err != nil {
				b.Fatal(err)
			}
		}
	}))
	return ms, nil
}
