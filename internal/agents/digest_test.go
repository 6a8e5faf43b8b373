package agents

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestPoissonDigest pins the exact Poisson variate stream: the SHA-256 of
// 1.05 million draws at activation means from a short phase up to both sides
// of the normal-approximation cutoff of 30.
func TestPoissonDigest(t *testing.T) {
	const perMean = 150_000
	r := NewRNG(2024)
	h := sha256.New()
	var buf [8]byte
	for _, mean := range []float64{0.01, 0.05, 0.25, 1, 5, 29.5, 31} {
		for i := 0; i < perMean; i++ {
			binary.LittleEndian.PutUint64(buf[:], uint64(newPoisson(mean).draw(r)))
			h.Write(buf[:])
		}
	}
	const want = "531d460dd262efef14a505dc7a299b032aee1ac2d8e8286dd3de9bd1b4dc7572"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Poisson stream digest = %s, want %s", got, want)
	}
}
