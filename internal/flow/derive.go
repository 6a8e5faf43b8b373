package flow

import (
	"fmt"
	"math"

	"wardrop/internal/latency"
)

// Derive returns a new instance over the same network and path sets with the
// edge latencies replaced by lats (nil keeps the current functions) and each
// commodity demand multiplied by the matching demandScale factor (nil keeps
// the current demands). The invariants ℓmax and β are recomputed for the new
// functions; the path enumeration, the CSR incidence and the graph are shared
// with the receiver, so deriving is cheap even on large instances — only the
// batch latency program is recompiled.
//
// This is the primitive behind time-varying scenarios: each timeline segment
// is a stationary instance derived from the base one.
func (in *Instance) Derive(lats []latency.Function, demandScale []float64) (*Instance, error) {
	if lats == nil {
		lats = in.latencies
	}
	if len(lats) != in.g.NumEdges() {
		return nil, fmt.Errorf("%w: %d functions for %d edges", ErrLatencyCount, len(lats), in.g.NumEdges())
	}
	if demandScale != nil && len(demandScale) != len(in.commodities) {
		return nil, fmt.Errorf("%w: %d scale factors for %d commodities", ErrBadDemand, len(demandScale), len(in.commodities))
	}
	comms := append([]Commodity(nil), in.commodities...)
	if demandScale != nil {
		for i := range comms {
			comms[i].Demand *= demandScale[i]
			if d := comms[i].Demand; d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return nil, fmt.Errorf("%w: commodity %d scaled demand %g", ErrBadDemand, i, d)
			}
		}
	}
	d := &Instance{
		g:           in.g,
		latencies:   append([]latency.Function(nil), lats...),
		commodities: comms,
		paths:       in.paths,
		offsets:     in.offsets,
		totalPaths:  in.totalPaths,
		maxPathLen:  in.maxPathLen,
	}
	d.computeBounds()
	// The incidence depends only on the shared path sets, so the parent's
	// compiled form is reused; only the latency program differs. Seeding both
	// eagerly (and burning the once) keeps the lazy-kernel contract intact.
	inc, _ := in.kernel()
	d.kernInc = inc
	d.kernProg = latency.Compile(d.latencies)
	d.kernOnce.Do(func() {})
	return d, nil
}
