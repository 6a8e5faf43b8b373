package bench

import (
	"math"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/policy"
)

// The seed fluid pipeline the engine replaced, kept as a differential
// oracle and as the "reference" side of BenchmarkFluidGrid: a row-major
// rate matrix filled through per-entry interface dispatch and the
// column-walk uniformization kernel. Its per-phase state evaluation runs on
// the Evaluator, whose equality with the naive evaluator internal/flow's
// differential tests pin.

// refRateMatrix is the seed's row-major rate matrix: rates[i][p*n+q] is the
// rate from p to q, filled with one sampler call per origin row and one
// migrator interface call per entry, and read column-wise by the
// uniformization kernel.
type refRateMatrix struct {
	inst    *flow.Instance
	rates   [][]float64
	rowSums [][]float64
	probs   [][]float64
	maxRate float64
}

func newRefRateMatrix(inst *flow.Instance) *refRateMatrix {
	rm := &refRateMatrix{inst: inst}
	for i := 0; i < inst.NumCommodities(); i++ {
		n := inst.NumCommodityPaths(i)
		rm.rates = append(rm.rates, make([]float64, n*n))
		rm.rowSums = append(rm.rowSums, make([]float64, n))
		rm.probs = append(rm.probs, make([]float64, n))
	}
	return rm
}

func (rm *refRateMatrix) fill(pol policy.Policy, boardFlows flow.Vector, boardLats []float64) {
	rm.maxRate = 0
	for i := 0; i < rm.inst.NumCommodities(); i++ {
		lo, hi := rm.inst.CommodityRange(i)
		n := hi - lo
		rates := rm.rates[i]
		sums := rm.rowSums[i]
		probs := rm.probs[i]
		flows := boardFlows[lo:hi]
		lats := boardLats[lo:hi]
		for p := 0; p < n; p++ {
			pol.Sampler.Probabilities(p, flows, lats, probs)
			row := rates[p*n : (p+1)*n]
			sum := 0.0
			for q := 0; q < n; q++ {
				if q == p {
					row[q] = 0
					continue
				}
				r := probs[q] * pol.Migrator.Probability(lats[p], lats[q])
				row[q] = r
				sum += r
			}
			sums[p] = sum
			if sum > rm.maxRate {
				rm.maxRate = sum
			}
		}
	}
}

func (rm *refRateMatrix) applyTranspose(v, out []float64, lambda float64) {
	for i := 0; i < rm.inst.NumCommodities(); i++ {
		lo, hi := rm.inst.CommodityRange(i)
		n := hi - lo
		rates := rm.rates[i]
		sums := rm.rowSums[i]
		for p := 0; p < n; p++ {
			acc := v[lo+p] * (1 - sums[p]/lambda)
			for q := 0; q < n; q++ {
				if q == p {
					continue
				}
				acc += v[lo+q] * rates[q*n+p] / lambda
			}
			out[lo+p] = acc
		}
	}
}

func refUniformization(rm *refRateMatrix, f flow.Vector, tau float64, vCur, vNext, acc []float64) {
	lambda := rm.maxRate
	if lambda <= 0 {
		return
	}
	x := lambda * tau
	weight := math.Exp(-x)
	copy(vCur, f)
	for i := range acc {
		acc[i] = weight * vCur[i]
	}
	maxTerms := int(x + 30*math.Sqrt(x+1) + 20)
	cum := weight
	for n := 1; n <= maxTerms; n++ {
		rm.applyTranspose(vCur, vNext, lambda)
		vCur, vNext = vNext, vCur
		weight *= x / float64(n)
		cum += weight
		for i := range acc {
			acc[i] += weight * vCur[i]
		}
		if 1-cum < 1e-14 {
			break
		}
	}
	copy(f, acc)
}

// referenceFluid runs the seed fluid pipeline (uniformization) on the
// workload and returns the final potential; it must agree bit-for-bit with
// KernelFluid.
func referenceFluid(w *GridWorkload) float64 {
	inst := w.Inst
	f := w.F0.Clone()
	rm := newRefRateMatrix(inst)
	ev := flow.NewEvaluator(inst, nil)
	n := inst.NumPaths()
	uA := make([]float64, n)
	uB := make([]float64, n)
	uC := make([]float64, n)
	t := 0.0
	for t < w.Horizon-1e-12 {
		ev.Eval(f)
		_ = ev.Potential()
		rm.fill(w.Pol, f, ev.PathLatencies())
		tau := math.Min(w.T, w.Horizon-t)
		refUniformization(rm, f, tau, uA, uB, uC)
		inst.Project(f, 1e-9)
		t += tau
	}
	ev.Eval(f)
	return ev.Potential()
}

// TestReferenceFluidMatchesKernel pins the benchmark's two sides to each
// other: the seed pipeline copy and the rebuilt engine must produce the
// same final potential bit-for-bit — the kernel is a drop-in replacement,
// not an approximation.
func TestReferenceFluidMatchesKernel(t *testing.T) {
	w, err := NewGridWorkload(4)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceFluid(w)
	ker, err := w.KernelFluid(flow.NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ref) != math.Float64bits(ker) {
		t.Fatalf("final potential: reference %v (%#x) != kernel %v (%#x)",
			ref, math.Float64bits(ref), ker, math.Float64bits(ker))
	}
}

// BenchmarkFluidGrid compares the seed fluid pipeline with the engine on a
// 6×6 grid (252 lattice paths).
func BenchmarkFluidGrid(b *testing.B) {
	w, err := NewGridWorkload(6)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = referenceFluid(w)
		}
	})
	b.Run("kernel", func(b *testing.B) {
		ws := flow.NewWorkspace()
		if _, err := w.KernelFluid(ws); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.KernelFluid(ws); err != nil {
				b.Fatal(err)
			}
		}
	})
}
