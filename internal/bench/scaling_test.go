package bench

import "testing"

// A small scaling point exercises the whole pipeline: the generator, the
// two measurements, the derived ratios and the solver cross-check. Sizes
// here are far below the crossover threshold, so this also pins that the
// suite works in the serial regime (the regime CI's smoke point is not in).
func TestScalingSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmarks")
	}
	ms, err := ScalingSuite([]int{600})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("got %d measurements, want 1", len(ms))
	}
	m := ms[0]
	if m.Family != "sparse-random" || m.Edges != 600 || m.ActualEdges != 600 {
		t.Errorf("shape = %+v, want sparse-random with exactly 600 edges", m)
	}
	if m.Paths <= 0 {
		t.Errorf("paths = %d, want > 0", m.Paths)
	}
	if m.SerialNs <= 0 || m.ParallelNs <= 0 {
		t.Errorf("non-positive timing: %+v", m)
	}
	if m.Workers < 1 {
		t.Errorf("workers = %d, want >= 1", m.Workers)
	}
	if m.ParSpeedup != m.SerialNs/m.ParallelNs {
		t.Errorf("parSpeedup = %g, want serialNs/parallelNs", m.ParSpeedup)
	}
	if m.Efficiency != m.ParSpeedup/float64(m.Workers) {
		t.Errorf("efficiency = %g, want parSpeedup/workers", m.Efficiency)
	}
	if m.SolverIters <= 0 || m.SolverPotential <= 0 {
		t.Errorf("solver cross-check missing: %+v", m)
	}
}

func TestScalingSuiteRejectsBadSize(t *testing.T) {
	if _, err := ScalingSuite([]int{4}); err == nil {
		t.Error("edge count below the generator's minimum accepted")
	}
}
