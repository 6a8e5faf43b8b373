package flow

import (
	"runtime"
	"sync"

	"wardrop/internal/latency"
)

// This file is the compiled evaluation kernel: the instance's [][]graph.Path
// strategy sets flattened into CSR incidence arrays, a reusable Workspace
// arena, and an Evaluator that owns all per-run scratch and keeps edge
// flows, edge latencies, path latencies and the per-edge potential terms
// consistent with a flow vector — by full re-evaluation or by incremental
// updates that touch only the edges and paths a flow move actually affects.
//
// It is the package's one evaluation path. Its numerics are those of the
// definitions: every quantity is bit-for-bit the value a naive per-edge,
// per-path evaluation produces for the same flow (edge flows accumulated in
// ascending global-path order skipping zero flows, path latencies summed in
// path-edge order, the potential summed in edge order). Incremental updates
// recompute each touched edge flow by rescanning its path list in ascending
// global-path order — the exact addition sequence of the full pass — so a
// delta-updated Evaluator never drifts from a freshly evaluated one. The
// naive evaluator itself lives in the package's test files, as the
// differential-testing oracle.

// incidence is the CSR form of the instance's path sets: a forward
// path→edges layout plus the reverse edge→paths index incremental updates
// need. Indices are int32 — path and edge counts are far below 2³¹ for any
// enumerable instance — halving the index memory against int.
type incidence struct {
	// pathStart[g]..pathStart[g+1] indexes pathEdges, the edge list of
	// global path g (in path order).
	pathStart []int32
	pathEdges []int32
	// edgeStart[e]..edgeStart[e+1] indexes edgePaths, the global indices of
	// the paths through edge e in ascending order.
	edgeStart []int32
	edgePaths []int32
	// pathWork[g] = Σ_{e ∈ path g} deg(e): the reverse-index rescan cost an
	// incremental refresh pays for a change to path g. Precomputed so the
	// incremental-vs-full crossover gate costs O(changed paths), not a walk
	// of their edge lists.
	pathWork []int32
}

// kernel returns the instance's compiled incidence and batch latency
// program, building both on first use (guarded by the instance's once).
func (in *Instance) kernel() (*incidence, *latency.Program) {
	in.kernOnce.Do(func() {
		in.kernInc = in.compileIncidence()
		in.kernProg = latency.Compile(in.latencies)
	})
	return in.kernInc, in.kernProg
}

// Program returns the instance's compiled batch latency program (shared,
// immutable, built on first use).
func (in *Instance) Program() *latency.Program {
	_, prog := in.kernel()
	return prog
}

func (in *Instance) compileIncidence() *incidence {
	nE := in.g.NumEdges()
	inc := &incidence{
		pathStart: make([]int32, in.totalPaths+1),
		edgeStart: make([]int32, nE+1),
	}
	total := 0
	g := 0
	for i := range in.paths {
		for _, p := range in.paths[i] {
			total += len(p.Edges)
			g++
			inc.pathStart[g] = int32(total)
		}
	}
	inc.pathEdges = make([]int32, total)
	inc.edgePaths = make([]int32, total)

	// Forward CSR plus per-edge degree counts.
	deg := make([]int32, nE)
	k := 0
	for i := range in.paths {
		for _, p := range in.paths[i] {
			for _, e := range p.Edges {
				inc.pathEdges[k] = int32(e)
				deg[e]++
				k++
			}
		}
	}
	// Reverse CSR by counting sort; filling in ascending global path order
	// leaves every edge's path list ascending — the invariant the
	// incremental rescan relies on for reference-identical addition order.
	for e := 0; e < nE; e++ {
		inc.edgeStart[e+1] = inc.edgeStart[e] + deg[e]
	}
	next := make([]int32, nE)
	copy(next, inc.edgeStart[:nE])
	g = 0
	for i := range in.paths {
		for _, p := range in.paths[i] {
			for _, e := range p.Edges {
				inc.edgePaths[next[e]] = int32(g)
				next[e]++
			}
			g++
		}
	}
	inc.pathWork = make([]int32, in.totalPaths)
	for g := range inc.pathWork {
		w := int32(0)
		for _, e := range inc.pathEdges[inc.pathStart[g]:inc.pathStart[g+1]] {
			w += deg[e]
		}
		inc.pathWork[g] = w
	}
	return inc
}

// Workspace is a reusable arena of float64 scratch buffers. A simulation
// run carves all its scratch (edge/path buffers, rate-matrix rows,
// integrator stages) from one workspace; Reset rewinds the arena so the
// next run — on the same or a different instance — reuses the same backing
// memory, growing a slab only when a run needs more than any previous one.
// The zero value and nil are both ready to use (nil never reuses, it just
// allocates), so workspace plumbing is always optional.
//
// A workspace serializes one run at a time: it is not safe for concurrent
// use, and buffers handed out before a Reset are invalidated by it. Pools
// (the sweep engine's workers) therefore keep one workspace per worker.
type Workspace struct {
	slabs [][]float64
	next  int
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset rewinds the arena: every slice previously returned by Floats is up
// for reuse and must no longer be referenced by the caller.
func (w *Workspace) Reset() {
	if w != nil {
		w.next = 0
	}
}

// Floats returns a length-n scratch slice with unspecified contents. A nil
// workspace allocates fresh memory; otherwise the slice reuses (and grows
// when needed) the arena slab at the current cursor.
func (w *Workspace) Floats(n int) []float64 {
	if w == nil {
		return make([]float64, n)
	}
	if w.next == len(w.slabs) {
		w.slabs = append(w.slabs, make([]float64, n))
	} else if cap(w.slabs[w.next]) < n {
		w.slabs[w.next] = make([]float64, n)
	}
	s := w.slabs[w.next][:n]
	w.next++
	return s
}

// Evaluator binds an instance's compiled kernel to a set of scratch buffers
// and keeps them consistent with a flow vector. Eval performs the full
// pass; ApplyDelta and Refresh update incrementally after sparse flow
// moves. All returned slices are views into the evaluator's buffers, valid
// until the next Eval/ApplyDelta/Refresh call.
//
// An evaluator is single-goroutine state; create one per concurrent run
// (they share the instance's immutable compiled incidence and latency
// program, so construction is cheap once the instance is warm).
type Evaluator struct {
	inst *Instance
	inc  *incidence
	prog *latency.Program

	edgeFlow []float64
	edgeLat  []float64
	edgeInt  []float64
	pathLat  []float64

	// Incremental bookkeeping: epoch marks de-duplicate touched edges and
	// dependent paths without clearing arrays between updates.
	edgeMark  []int32
	pathMark  []int32
	epoch     int32
	touched   []int32
	evaluated bool
	// potValid tracks whether edgeInt matches edgeFlow; EdgeIntegrals
	// materializes the per-edge integral terms lazily and Refresh keeps
	// them current once materialized, so runs that never ask for the
	// potential never pay for it.
	potValid bool

	// Parallel full-pass state. par is the worker count (1 disables);
	// forcePar bypasses the size crossover so tests can exercise the
	// parallel kernel on toy instances. The chunk plans are CSR-weight-
	// balanced boundaries in edge and path space, computed once per worker
	// count and reused by every pass, so parallel phases allocate nothing
	// beyond the goroutine fan-out itself (the same trade the dynamics
	// parfill makes).
	par        int
	forcePar   bool
	edgeChunks []int32
	pathChunks []int32
}

const (
	// evalParMinWork is the serial/parallel crossover for full passes:
	// below this total work (incidence entries + edges) the goroutine
	// fan-out costs more than it saves — toy catalog instances (the 6×6
	// grid is a few hundred entries) stay on the serial path.
	evalParMinWork = 1 << 14
	// maxEvalWorkers caps the fan-out; beyond ~8 workers the passes are
	// memory-bound (matches the dynamics parfill cap).
	maxEvalWorkers = 8
)

func defaultEvalWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > maxEvalWorkers {
		n = maxEvalWorkers
	}
	return n
}

// NewEvaluator builds an evaluator for the instance, carving its buffers
// from ws (nil allocates privately).
func NewEvaluator(inst *Instance, ws *Workspace) *Evaluator {
	inc, prog := inst.kernel()
	nE := inst.g.NumEdges()
	nP := inst.totalPaths
	ev := &Evaluator{
		inst:     inst,
		inc:      inc,
		prog:     prog,
		edgeFlow: ws.Floats(nE),
		edgeLat:  ws.Floats(nE),
		edgeInt:  ws.Floats(nE),
		pathLat:  ws.Floats(nP),
		edgeMark: make([]int32, nE),
		pathMark: make([]int32, nP),
		touched:  make([]int32, 0, nE),
		par:      defaultEvalWorkers(),
	}
	return ev
}

// SetParallelism overrides the worker count for parallel full passes.
// workers <= 1 forces the serial path; workers > 1 forces the parallel path
// with that many workers regardless of the size crossover (differential
// tests use this to exercise the parallel kernel on small instances).
// workers == 0 restores the default: min(GOMAXPROCS, 8) workers, engaged
// only above the crossover threshold. Parallel and serial passes produce
// identical bits, so this is a performance knob, never a semantic one.
func (ev *Evaluator) SetParallelism(workers int) {
	switch {
	case workers == 0:
		ev.par = defaultEvalWorkers()
		ev.forcePar = false
	case workers <= 1:
		ev.par = 1
		ev.forcePar = false
	default:
		ev.par = workers
		ev.forcePar = true
	}
	ev.edgeChunks = nil
	ev.pathChunks = nil
}

// parallelEval reports whether a full pass should take the parallel path.
func (ev *Evaluator) parallelEval() bool {
	if ev.par <= 1 {
		return false
	}
	return ev.forcePar || len(ev.inc.pathEdges)+len(ev.edgeFlow) >= evalParMinWork
}

// ensureChunks builds (or rebuilds after SetParallelism) the cached chunk
// plans: par+1 boundaries in edge space balanced by reverse-index degree,
// and in path space balanced by path length.
func (ev *Evaluator) ensureChunks() {
	if len(ev.edgeChunks) == ev.par+1 {
		return
	}
	ev.edgeChunks = balanceChunks(ev.inc.edgeStart, ev.par)
	ev.pathChunks = balanceChunks(ev.inc.pathStart, ev.par)
}

// balanceChunks splits the rows of a CSR starts array (len(starts)-1 rows,
// row i weighing starts[i+1]-starts[i]) into parts contiguous chunks of
// roughly equal total weight, returning parts+1 nondecreasing boundaries.
func balanceChunks(starts []int32, parts int) []int32 {
	n := len(starts) - 1
	total := int64(starts[n])
	bounds := make([]int32, parts+1)
	bounds[parts] = int32(n)
	i := 0
	for c := 1; c < parts; c++ {
		target := total * int64(c) / int64(parts)
		for i < n && int64(starts[i]) < target {
			i++
		}
		bounds[c] = int32(i)
	}
	return bounds
}

// Instance returns the bound instance.
func (ev *Evaluator) Instance() *Instance { return ev.inst }

// Eval fully re-evaluates edge flows, edge latencies and path latencies
// from f. Above the size crossover (and with more than one worker
// available) the pass runs in parallel over pre-balanced edge and path
// chunks; below it, serially. Both paths produce identical bits — see
// evalParallel for the argument — so the crossover is purely a performance
// decision.
func (ev *Evaluator) Eval(f Vector) {
	ev.eval(f)
	ev.evaluated = true
}

// EvalEdgeFlows fully re-evaluates edge latencies and path latencies from
// edge flows fe the caller maintains itself (copied into the evaluator, so
// EdgeFlows and Potential describe them too) — the second half of Eval, for
// callers whose iterates are defined by their own edge-flow updates. No
// path flow backs the result, so a following Refresh re-evaluates in full.
func (ev *Evaluator) EvalEdgeFlows(fe []float64) {
	copy(ev.edgeFlow, fe)
	ev.eval(nil)
	ev.evaluated = false
}

// eval is the full pass behind Eval and EvalEdgeFlows: edge flows from f
// (nil: the edge flows are already in place), then edge latencies and path
// latencies.
func (ev *Evaluator) eval(f Vector) {
	if ev.parallelEval() {
		ev.evalParallel(f)
	} else {
		ev.evalSerial(f)
	}
	ev.potValid = false
}

func (ev *Evaluator) evalSerial(f Vector) {
	pathEdges := ev.inc.pathEdges
	pathStart := ev.inc.pathStart
	edgeFlow := ev.edgeFlow
	if f != nil {
		for e := range edgeFlow {
			edgeFlow[e] = 0
		}
		// Ascending global path order with zero-flow paths skipped — the
		// reference accumulation sequence.
		for g := range f {
			fp := f[g]
			if fp == 0 {
				continue
			}
			for _, e := range pathEdges[pathStart[g]:pathStart[g+1]] {
				edgeFlow[e] += fp
			}
		}
	}
	ev.prog.Values(edgeFlow, ev.edgeLat)
	edgeLat := ev.edgeLat
	pathLat := ev.pathLat
	for g := range pathLat {
		sum := 0.0
		for _, e := range pathEdges[pathStart[g]:pathStart[g+1]] {
			sum += edgeLat[e]
		}
		pathLat[g] = sum
	}
}

// evalParallel is the chunked full pass. Phase 1 fans out over disjoint
// edge ranges: each worker computes its edges' flows by a gather over the
// reverse index (unless f is nil and the flows are already in place) and
// batch-evaluates their latencies via ValuesRange. Phase 2 (after a
// barrier — path sums read edge latencies across chunk boundaries) fans
// out over disjoint path ranges summing path latencies.
//
// Bit-identity with evalSerial: the gather iterates edge e's path list in
// ascending global order skipping zero flows — exactly the per-edge
// addition sequence the serial forward scatter produces (the invariant the
// incremental rescan already relies on, pinned by the kernel differential
// tests); latency evaluation and path sums are per-edge/per-path
// independent, so chunking cannot reorder anything. No worker writes
// outside its range and phases are separated by barriers, so the pass is
// race-free by construction.
func (ev *Evaluator) evalParallel(f Vector) {
	ev.ensureChunks()
	inc := ev.inc
	var wg sync.WaitGroup
	for c := 0; c < ev.par; c++ {
		e0, e1 := ev.edgeChunks[c], ev.edgeChunks[c+1]
		if e0 == e1 {
			continue
		}
		wg.Add(1)
		go func(e0, e1 int32) {
			defer wg.Done()
			edgeFlow := ev.edgeFlow
			if f != nil {
				for e := e0; e < e1; e++ {
					sum := 0.0
					for _, g := range inc.edgePaths[inc.edgeStart[e]:inc.edgeStart[e+1]] {
						if fp := f[g]; fp != 0 {
							sum += fp
						}
					}
					edgeFlow[e] = sum
				}
			}
			ev.prog.ValuesRange(edgeFlow, ev.edgeLat, e0, e1)
		}(e0, e1)
	}
	wg.Wait()
	for c := 0; c < ev.par; c++ {
		g0, g1 := ev.pathChunks[c], ev.pathChunks[c+1]
		if g0 == g1 {
			continue
		}
		wg.Add(1)
		go func(g0, g1 int32) {
			defer wg.Done()
			edgeLat := ev.edgeLat
			for g := g0; g < g1; g++ {
				sum := 0.0
				for _, e := range inc.pathEdges[inc.pathStart[g]:inc.pathStart[g+1]] {
					sum += edgeLat[e]
				}
				ev.pathLat[g] = sum
			}
		}(g0, g1)
	}
	wg.Wait()
}

// ApplyDelta moves amount flow from global path p to global path q
// (mutating f) and incrementally re-evaluates: only the edges of p and q
// and the paths sharing those edges are recomputed. Requires a prior Eval
// of f.
func (ev *Evaluator) ApplyDelta(f Vector, p, q int, amount float64) {
	f[p] -= amount
	f[q] += amount
	ev.Refresh(f, p, q)
}

// Refresh incrementally re-evaluates after the caller changed f on exactly
// the given global paths (f is already updated). Requires that every other
// entry of f is unchanged since the evaluator last saw it, and a prior
// Eval. Refresh gates itself by estimated cost: when the rescan the change
// implies (precomputed per-path as pathWork) approaches the cost of a full
// pass, it falls back to Eval — which batches latency evaluation and
// parallelizes on large instances, and produces identical bits — so a move
// through a bottleneck edge shared by most paths never does more work than
// a full evaluation.
func (ev *Evaluator) Refresh(f Vector, changed ...int) {
	if !ev.evaluated {
		ev.Eval(f)
		return
	}
	inc := ev.inc
	// pathWork prices the reverse-index rescan; the dependent-path re-sums
	// and the epoch marking cost roughly that much again, while the batched
	// full pass streams linearly. The 3x factor makes the incremental path
	// engage only where it clearly wins (changes touching under about a
	// third of the incidence) — on dense overlapping path sets like the
	// grid, a two-path move reaches most of the incidence and the full pass
	// is faster.
	work := int32(0)
	limit := int32(len(inc.pathEdges))
	for _, g := range changed {
		work += inc.pathWork[g]
		if work >= limit/3 {
			ev.fullRefresh(f, changed)
			return
		}
	}
	ev.epoch++
	// Epoch wrap (int32 increment past MaxInt32 goes negative): reset the
	// marks to 0 and restart at 1, so live epochs are always positive and
	// can never collide with a stale mark.
	if ev.epoch <= 0 {
		for i := range ev.edgeMark {
			ev.edgeMark[i] = 0
		}
		for i := range ev.pathMark {
			ev.pathMark[i] = 0
		}
		ev.epoch = 1
	}
	ev.touched = ev.touched[:0]
	for _, g := range changed {
		for _, e := range inc.pathEdges[inc.pathStart[g]:inc.pathStart[g+1]] {
			if ev.edgeMark[e] != ev.epoch {
				ev.edgeMark[e] = ev.epoch
				ev.touched = append(ev.touched, e)
			}
		}
	}
	lats := ev.inst.latencies
	for _, e := range ev.touched {
		// Rescan the edge's path list in ascending order, skipping zero
		// flows: the exact addition sequence of the reference full pass, so
		// the incremental value is bitwise the full-evaluation value.
		sum := 0.0
		for _, g := range inc.edgePaths[inc.edgeStart[e]:inc.edgeStart[e+1]] {
			if fp := f[g]; fp != 0 {
				sum += fp
			}
		}
		ev.edgeFlow[e] = sum
		ev.edgeLat[e] = lats[e].Value(sum)
		if ev.potValid {
			ev.edgeInt[e] = lats[e].Integral(sum)
		}
	}
	// Re-sum every path through a touched edge (in path-edge order, as the
	// full pass does).
	for _, e := range ev.touched {
		for _, g := range inc.edgePaths[inc.edgeStart[e]:inc.edgeStart[e+1]] {
			if ev.pathMark[g] == ev.epoch {
				continue
			}
			ev.pathMark[g] = ev.epoch
			sum := 0.0
			for _, ee := range inc.pathEdges[inc.pathStart[g]:inc.pathStart[g+1]] {
				sum += ev.edgeLat[ee]
			}
			ev.pathLat[g] = sum
		}
	}
}

// fullRefresh is Refresh's dense fallback: a batched full pass, plus a
// repair of the potential terms when they were live. Only the changed
// paths' edges carry new flows — every other edge recomputes to identical
// bits (same nonzero flows, same ascending addition order) — so patching
// just those integrals leaves edgeInt exactly as a from-scratch
// materialization would, and the next Potential call is a plain sum
// instead of a full Integrals pass. The patch uses the same per-edge
// Integral calls the incremental path uses, which match the batched
// program bit-for-bit (the invariant the incremental mode is built on).
func (ev *Evaluator) fullRefresh(f Vector, changed []int) {
	hadPot := ev.potValid
	ev.Eval(f)
	if !hadPot {
		return
	}
	inc := ev.inc
	lats := ev.inst.latencies
	for _, g := range changed {
		for _, e := range inc.pathEdges[inc.pathStart[g]:inc.pathStart[g+1]] {
			ev.edgeInt[e] = lats[e].Integral(ev.edgeFlow[e])
		}
	}
	ev.potValid = true
}

// EdgeFlows returns the current per-edge flows (a live view).
func (ev *Evaluator) EdgeFlows() []float64 { return ev.edgeFlow }

// EdgeLatencies returns the current per-edge latencies (a live view).
func (ev *Evaluator) EdgeLatencies() []float64 { return ev.edgeLat }

// PathLatencies returns the current per-path latencies (a live view).
func (ev *Evaluator) PathLatencies() []float64 { return ev.pathLat }

// Potential returns Φ(f) for the last evaluated flow: the per-edge
// integral terms (see EdgeIntegrals) summed in edge order.
func (ev *Evaluator) Potential() float64 {
	phi := 0.0
	for _, v := range ev.EdgeIntegrals() {
		phi += v
	}
	return phi
}

// EdgeIntegrals returns the per-edge potential terms ∫₀^{f_e} ℓ_e(u) du of
// the last evaluated flow (a live view). They are materialized lazily on
// first use and then kept current by Refresh, so runs that never ask for
// the potential never pay for them.
func (ev *Evaluator) EdgeIntegrals() []float64 {
	if !ev.potValid {
		if ev.parallelEval() {
			ev.ensureChunks()
			var wg sync.WaitGroup
			for c := 0; c < ev.par; c++ {
				e0, e1 := ev.edgeChunks[c], ev.edgeChunks[c+1]
				if e0 == e1 {
					continue
				}
				wg.Add(1)
				go func(e0, e1 int32) {
					defer wg.Done()
					ev.prog.IntegralsRange(ev.edgeFlow, ev.edgeInt, e0, e1)
				}(e0, e1)
			}
			wg.Wait()
		} else {
			ev.prog.Integrals(ev.edgeFlow, ev.edgeInt)
		}
		ev.potValid = true
	}
	return ev.edgeInt
}

// BestResponseInto writes the all-or-nothing best response to pathLat into
// b: each commodity's demand routes entirely onto its minimum-latency path,
// ties towards the lowest global index.
func (in *Instance) BestResponseInto(pathLat []float64, b Vector) {
	for g := range b {
		b[g] = 0
	}
	for i := range in.commodities {
		idx, _ := in.MinLatency(i, pathLat)
		b[idx] = in.commodities[i].Demand
	}
}
