// Package flow defines Wardrop routing instances (graph + latency functions +
// commodities with enumerated path sets), feasible flow vectors over paths,
// and the measurements the paper's analysis is built on: edge/path latencies,
// the Beckmann–McGuire–Winsten potential, per-commodity minimum and average
// latencies, and the (δ,ε)- and weak (δ,ε)-equilibrium metrics of §5.
//
// One evaluation path computes edge flows, edge and path latencies and the
// potential: the compiled kernel (kernel.go: CSR incidence, Evaluator,
// Workspace), with batch latency kernels, zero steady-state allocation and
// incremental updates after sparse flow moves. Every engine, the solver and
// the convenience methods (PathLatencies, Potential, AtWardropEquilibrium)
// run on it. The naive per-quantity reference evaluator survives only in
// the package's test files, as the oracle the kernel must match bit for bit.
package flow

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"wardrop/internal/graph"
	"wardrop/internal/latency"
)

// Sentinel errors for instance construction and flow validation.
var (
	// ErrLatencyCount indicates the latency slice does not match the edge count.
	ErrLatencyCount = errors.New("flow: latency function count != edge count")
	// ErrBadDemand indicates a non-positive commodity demand.
	ErrBadDemand = errors.New("flow: commodity demand must be positive")
	// ErrNoCommodities indicates an instance without commodities.
	ErrNoCommodities = errors.New("flow: instance needs at least one commodity")
	// ErrDimension indicates a flow vector of the wrong length.
	ErrDimension = errors.New("flow: vector has wrong dimension")
	// ErrNegativeFlow indicates a negative path flow.
	ErrNegativeFlow = errors.New("flow: negative path flow")
	// ErrDemandMismatch indicates commodity path flows not summing to demand.
	ErrDemandMismatch = errors.New("flow: path flows do not sum to demand")
)

// Commodity is a demand of Demand flow units to route from Source to Sink.
type Commodity struct {
	Name   string
	Source graph.NodeID
	Sink   graph.NodeID
	Demand float64
}

// Instance is an immutable Wardrop routing instance: a network with latency
// functions and commodities whose strategy spaces are the enumerated simple
// paths between their terminals. Build with NewInstance; safe for concurrent
// reads afterwards.
type Instance struct {
	g           *graph.Graph
	latencies   []latency.Function
	commodities []Commodity

	paths      [][]graph.Path // per commodity
	offsets    []int          // offsets[i] = global index of commodity i's first path
	totalPaths int
	maxPathLen int

	lmax     float64
	maxSlope float64

	// Compiled evaluation kernel (kernel.go), built on first use; the once
	// keeps lazy compilation safe under the instance's concurrent-reads
	// contract.
	kernOnce sync.Once
	kernInc  *incidence
	kernProg *latency.Program
}

// Option configures instance construction.
type Option func(*options)

type options struct {
	maxPathLen int
	kPaths     int
}

// WithMaxPathLen bounds path enumeration to paths of at most n edges.
// n <= 0 (the default) enumerates all simple paths.
func WithMaxPathLen(n int) Option {
	return func(o *options) { o.maxPathLen = n }
}

// WithKShortestPaths restricts each commodity's strategy space to its k
// cheapest loopless paths (Yen's algorithm) under the free-flow latencies
// ℓ_e(0), with a tiny per-edge penalty breaking zero-latency ties towards
// fewer hops. Use this instead of full enumeration on graphs whose simple-
// path count explodes. k <= 0 (the default) enumerates all simple paths.
func WithKShortestPaths(k int) Option {
	return func(o *options) { o.kPaths = k }
}

// NewInstance validates the inputs, enumerates every commodity's path set and
// precomputes the instance invariants D (max path length), β (max latency
// slope) and ℓmax (max zero-excess path latency Σ_{e∈P} ℓ_e(1)).
func NewInstance(g *graph.Graph, lats []latency.Function, comms []Commodity, opts ...Option) (*Instance, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	if len(lats) != g.NumEdges() {
		return nil, fmt.Errorf("%w: %d functions for %d edges", ErrLatencyCount, len(lats), g.NumEdges())
	}
	if len(comms) == 0 {
		return nil, ErrNoCommodities
	}
	inst := &Instance{
		g:           g,
		latencies:   append([]latency.Function(nil), lats...),
		commodities: append([]Commodity(nil), comms...),
		offsets:     make([]int, len(comms)+1),
	}
	for i, c := range comms {
		if c.Demand <= 0 || math.IsNaN(c.Demand) || math.IsInf(c.Demand, 0) {
			return nil, fmt.Errorf("%w: commodity %d demand %g", ErrBadDemand, i, c.Demand)
		}
		var paths []graph.Path
		var err error
		if o.kPaths > 0 {
			freeFlow := func(e graph.EdgeID) float64 { return lats[e].Value(0) + 1e-9 }
			paths, err = g.KShortestPaths(c.Source, c.Sink, o.kPaths, freeFlow)
		} else {
			paths, err = g.EnumeratePaths(c.Source, c.Sink, o.maxPathLen)
		}
		if err != nil {
			return nil, fmt.Errorf("flow: commodity %d: %w", i, err)
		}
		inst.paths = append(inst.paths, paths)
		inst.offsets[i] = inst.totalPaths
		inst.totalPaths += len(paths)
		for _, p := range paths {
			if p.Len() > inst.maxPathLen {
				inst.maxPathLen = p.Len()
			}
		}
	}
	inst.offsets[len(comms)] = inst.totalPaths
	inst.computeBounds()
	return inst, nil
}

// computeBounds sets the latency-dependent invariants from the instance's
// path sets and functions: ℓmax = max_P Σ_{e∈P} ℓ_e(1) and β, the maximum
// slope bound of any edge latency function.
func (in *Instance) computeBounds() {
	for _, paths := range in.paths {
		for _, p := range paths {
			sum := 0.0
			for _, e := range p.Edges {
				sum += in.latencies[e].Value(1)
			}
			in.lmax = math.Max(in.lmax, sum)
		}
	}
	for _, f := range in.latencies {
		in.maxSlope = math.Max(in.maxSlope, f.SlopeBound())
	}
}

// Graph returns the underlying network.
func (in *Instance) Graph() *graph.Graph { return in.g }

// Latency returns edge e's latency function.
func (in *Instance) Latency(e graph.EdgeID) latency.Function { return in.latencies[e] }

// NumCommodities reports the number of commodities.
func (in *Instance) NumCommodities() int { return len(in.commodities) }

// Commodity returns commodity i.
func (in *Instance) Commodity(i int) Commodity { return in.commodities[i] }

// NumPaths reports the total number of paths across all commodities (the
// dimension of flow vectors).
func (in *Instance) NumPaths() int { return in.totalPaths }

// NumCommodityPaths reports |P_i| for commodity i.
func (in *Instance) NumCommodityPaths(i int) int { return len(in.paths[i]) }

// Paths returns commodity i's path set. The slice is owned by the instance
// and must not be modified.
func (in *Instance) Paths(i int) []graph.Path { return in.paths[i] }

// GlobalIndex maps (commodity, local path index) to the flow-vector index.
func (in *Instance) GlobalIndex(commodity, local int) int {
	return in.offsets[commodity] + local
}

// CommodityRange returns the half-open global index range [lo, hi) of
// commodity i's paths.
func (in *Instance) CommodityRange(i int) (lo, hi int) {
	return in.offsets[i], in.offsets[i+1]
}

// CommodityOf returns the commodity owning global path index g.
func (in *Instance) CommodityOf(g int) int {
	// Linear scan is fine: commodity counts are small; callers in hot loops
	// iterate per commodity anyway.
	for i := 0; i+1 < len(in.offsets); i++ {
		if g < in.offsets[i+1] {
			return i
		}
	}
	return len(in.commodities) - 1
}

// Path returns the path at global index g.
func (in *Instance) Path(g int) graph.Path {
	i := in.CommodityOf(g)
	return in.paths[i][g-in.offsets[i]]
}

// MaxPathLen returns D, the maximum number of edges of any enumerated path.
func (in *Instance) MaxPathLen() int { return in.maxPathLen }

// Beta returns β, the maximum slope bound of any edge latency function (the
// paper's notation).
func (in *Instance) Beta() float64 { return in.maxSlope }

// LMax returns ℓmax, the paper's upper bound on any path latency:
// max_P Σ_{e∈P} ℓ_e(1).
func (in *Instance) LMax() float64 { return in.lmax }

// TotalDemand returns Σ_i r_i.
func (in *Instance) TotalDemand() float64 {
	sum := 0.0
	for _, c := range in.commodities {
		sum += c.Demand
	}
	return sum
}
