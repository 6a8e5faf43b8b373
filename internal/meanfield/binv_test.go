package meanfield

import (
	"math"
	"testing"
)

// binvReference is the inversion without the fast zero: it always computes
// q^n and walks the pmf from k = 0. binv must agree with it at every u.
func binvReference(n int64, p, u float64) int64 {
	q := 1 - p
	s := p / q
	a := float64(n+1) * s
	prob := math.Exp(float64(n) * math.Log1p(-p))
	var k int64
	for u > prob {
		u -= prob
		k++
		if k >= n {
			return n
		}
		prob *= a/float64(k) - s
		if prob <= 0 {
			return k
		}
	}
	return k
}

// stepUlps moves x by k ulps (k < 0 steps down).
func stepUlps(x float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// TestBinvFastZeroExact compares binv with the reference inversion on 10⁷
// random (n, p) pairs — p log-uniform over nine decades below 1/2, n
// log-uniform up to the inversion cutoff np = 30 — and, on every 16th pair,
// at adversarial u a few ulps either side of the computed q^n and of the
// fast-zero threshold 1 - np - margin.
func TestBinvFastZeroExact(t *testing.T) {
	const pairs = 10_000_000
	r := NewRNG(0xb1a5)
	check := func(n int64, p, u float64) {
		if u < 0 || u >= 1 {
			return // outside Float64's range
		}
		if got, want := binv(n, p, u), binvReference(n, p, u); got != want {
			t.Fatalf("binv(%d, %g, %v) = %d, reference %d", n, p, u, got, want)
		}
	}
	for i := 0; i < pairs; i++ {
		p := 0.5 * math.Pow(10, -9*r.Float64())
		maxN := math.Min(binvCutoff/p, 1<<53)
		n := int64(math.Exp(r.Float64() * math.Log(maxN)))
		if n < 1 {
			n = 1
		}
		check(n, p, r.Float64())
		if i%16 != 0 {
			continue
		}
		qn := math.Exp(float64(n) * math.Log1p(-p))
		thr := 1 - float64(n)*p - binvZeroMargin
		for k := -3; k <= 3; k++ {
			check(n, p, stepUlps(qn, k))
			check(n, p, stepUlps(thr, k))
		}
	}
}
