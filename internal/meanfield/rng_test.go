package meanfield

import (
	"math"
	"testing"

	"wardrop/internal/topo"
)

// Binomial must honour the degenerate corners exactly: they are what count
// conservation leans on when rows concentrate or empty out.
func TestBinomialEdgeCases(t *testing.T) {
	r := NewRNG(1)
	cases := []struct {
		name string
		n    int64
		p    float64
		want int64
		any  bool // any value in [0, n] acceptable
	}{
		{"n=0", 0, 0.5, 0, false},
		{"n negative", -3, 0.5, 0, false},
		{"p=0", 100, 0, 0, false},
		{"p negative", 100, -0.5, 0, false},
		{"p=1", 100, 1, 100, false},
		{"p above one", 100, 1.5, 100, false},
		{"n=0 p=1", 0, 1, 0, false},
		{"n=1", 1, 0.5, 0, true},
		{"huge n p=1", 1 << 40, 1, 1 << 40, false},
		{"huge n p=0", 1 << 40, 0, 0, false},
	}
	for _, c := range cases {
		for i := 0; i < 100; i++ {
			got := r.Binomial(c.n, c.p)
			if c.any {
				if got < 0 || got > c.n {
					t.Fatalf("%s: Binomial(%d, %g) = %d out of range", c.name, c.n, c.p, got)
				}
				continue
			}
			if got != c.want {
				t.Fatalf("%s: Binomial(%d, %g) = %d, want %d", c.name, c.n, c.p, got, c.want)
			}
		}
	}
}

// Every draw must stay in [0, n] on both sampling paths (inversion and the
// normal approximation).
func TestBinomialRange(t *testing.T) {
	r := NewRNG(2)
	for _, c := range []struct {
		n int64
		p float64
	}{
		{10, 0.3},        // inversion
		{10, 0.97},       // inversion via symmetry
		{1 << 20, 1e-6},  // inversion, tiny p
		{1 << 20, 0.4},   // normal approximation
		{1 << 40, 0.635}, // normal approximation, huge n
	} {
		for i := 0; i < 2000; i++ {
			got := r.Binomial(c.n, c.p)
			if got < 0 || got > c.n {
				t.Fatalf("Binomial(%d, %g) = %d out of [0, n]", c.n, c.p, got)
			}
		}
	}
}

// Statistical sanity: empirical mean and variance of both sampling paths
// must match np and np(1-p) well within a generous multiple of the standard
// error (the seeds are fixed, so this is deterministic, not flaky).
func TestBinomialMoments(t *testing.T) {
	cases := []struct {
		name string
		n    int64
		p    float64
	}{
		{"inversion", 200, 0.1},
		{"inversion symmetric", 200, 0.9},
		{"normal approx", 1_000_000, 0.37},
	}
	const draws = 20000
	for _, c := range cases {
		r := NewRNG(7)
		var sum, sumSq float64
		for i := 0; i < draws; i++ {
			x := float64(r.Binomial(c.n, c.p))
			sum += x
			sumSq += x * x
		}
		mean := sum / draws
		variance := sumSq/draws - mean*mean
		wantMean := float64(c.n) * c.p
		wantVar := wantMean * (1 - c.p)
		se := math.Sqrt(wantVar / draws)
		if math.Abs(mean-wantMean) > 6*se {
			t.Errorf("%s: mean %g, want %g ± %g", c.name, mean, wantMean, 6*se)
		}
		if math.Abs(variance-wantVar) > 0.1*wantVar {
			t.Errorf("%s: variance %g, want %g ± 10%%", c.name, variance, wantVar)
		}
	}
}

// Multinomial must conserve the total under every split shape: degenerate
// rows, single buckets, zero entries, rows not quite summing to one.
func TestMultinomialConservation(t *testing.T) {
	r := NewRNG(3)
	cases := []struct {
		name  string
		total int64
		probs []float64
	}{
		{"single bucket", 1000, []float64{1}},
		{"single bucket zero prob", 1000, []float64{0}},
		{"zero total", 0, []float64{0.5, 0.5}},
		{"all mass first", 1000, []float64{1, 0, 0}},
		{"all mass last", 1000, []float64{0, 0, 1}},
		{"uniform", 1000, []float64{0.25, 0.25, 0.25, 0.25}},
		{"with zeros", 12345, []float64{0.3, 0, 0.2, 0, 0.5}},
		{"underweight row", 999, []float64{0.2, 0.1}},
		{"tiny probs", 1 << 30, []float64{1e-12, 1 - 1e-12}},
		{"one agent", 1, []float64{0.5, 0.5}},
	}
	for _, c := range cases {
		for i := 0; i < 200; i++ {
			out := make([]int64, len(c.probs))
			r.Multinomial(c.total, c.probs, out)
			var sum int64
			for q, x := range out {
				if x < 0 {
					t.Fatalf("%s: negative bucket %d = %d", c.name, q, x)
				}
				sum += x
			}
			if sum != c.total {
				t.Fatalf("%s: buckets sum to %d, want %d (out=%v)", c.name, sum, c.total, out)
			}
		}
	}
}

// Multinomial accumulates into out rather than overwriting, and concentrated
// rows land everything on the right bucket.
func TestMultinomialAccumulatesAndConcentrates(t *testing.T) {
	r := NewRNG(4)
	out := make([]int64, 3)
	r.Multinomial(10, []float64{0, 1, 0}, out)
	r.Multinomial(5, []float64{0, 1, 0}, out)
	if out[0] != 0 || out[1] != 15 || out[2] != 0 {
		t.Fatalf("concentrated splits = %v, want [0 15 0]", out)
	}
}

// Statistical sanity for the multinomial: bucket means must match
// total·p_q.
func TestMultinomialMoments(t *testing.T) {
	r := NewRNG(5)
	probs := []float64{0.1, 0.2, 0.3, 0.4}
	const total, draws = 1000, 5000
	sums := make([]float64, len(probs))
	for i := 0; i < draws; i++ {
		out := make([]int64, len(probs))
		r.Multinomial(total, probs, out)
		for q, x := range out {
			sums[q] += float64(x)
		}
	}
	for q, p := range probs {
		mean := sums[q] / draws
		want := total * p
		se := math.Sqrt(total * p * (1 - p) / draws)
		if math.Abs(mean-want) > 6*se {
			t.Errorf("bucket %d: mean %g, want %g ± %g", q, mean, want, 6*se)
		}
	}
}

// The RNG must be the shared splitmix64 stream: seeding it like topo.SplitMix
// yields topo.SplitMix's raw outputs, so seeds derived with topo.DeriveSeed
// mean the same thing here as everywhere else.
func TestRNGIsSharedSplitMixStream(t *testing.T) {
	r := NewRNG(99)
	s := topo.SplitMix{State: 99}
	for i := 0; i < 10; i++ {
		if a, b := r.Uint64(), s.Next(); a != b {
			t.Fatalf("stream diverged from topo.SplitMix at %d: %x vs %x", i, a, b)
		}
	}
}

// BenchmarkBinomialSmallMean measures the kernel the count engine spends
// most of its phase in: Binomial splits of a large row at the small means
// (np from 0.01 to 3) that per-destination migration rates produce. One op
// is one draw.
func BenchmarkBinomialSmallMean(b *testing.B) {
	const n = 333_333
	ps := [...]float64{0.01 / n, 0.1 / n, 0.3 / n, 1.0 / n, 3.0 / n}
	r := NewRNG(1)
	for i := 0; b.Loop(); i++ {
		r.Binomial(n, ps[i%len(ps)])
	}
}
