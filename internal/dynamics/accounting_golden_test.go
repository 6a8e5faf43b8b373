package dynamics

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

// The goldens below pin every field of the Accountant's per-phase Lemma 3
// bookkeeping (Phase, DeltaPhi, VirtualGain, ErrorSum) for 40-phase fluid
// replicator runs on Braess and on a 64-path layered DAG, at the safe update
// period and at T = 0.05. Any change to how the Eq. 7/8 terms are evaluated
// or summed moves them.

type accountsGolden struct {
	n      int    // len(Accounts)
	digest string // accountsDigest(Accounts)
}

var accountantGoldens = map[string]accountsGolden{
	"braess/safe":  {39, "33efb48f0f70a5407b8b92c1e39761d34bd369629d73164d3985c118fdca4eb3"},
	"braess/0.05":  {39, "112084f2753a1b9a337619db3f9a84d7f2d53262e78647c0683911a26577f23e"},
	"layered/safe": {39, "47b8f27e75b5da1099f24e329f0b0575916d2ab8ada9d9cc99bf5504d2b8b705"},
	"layered/0.05": {39, "450debbc0401a915672531b686050a05b2de40e33b108cdd802df428f5a8d516"},
}

// accountsDigest hashes each account's phase index and the float64 bits of
// its three terms, in phase order.
func accountsDigest(as []PhaseAccount) string {
	h := sha256.New()
	var b [8]byte
	for _, a := range as {
		for _, x := range []uint64{uint64(a.Phase), math.Float64bits(a.DeltaPhi),
			math.Float64bits(a.VirtualGain), math.Float64bits(a.ErrorSum)} {
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestAccountantGoldens(t *testing.T) {
	layered, err := topo.LayeredRandom(3, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		inst *flow.Instance
	}{{"braess", mustBraess(t)}, {"layered", layered}} {
		inst := tc.inst
		pol := mustReplicator(t, inst.LMax())
		safe, err := policy.SafeUpdatePeriodFor(pol, inst.Beta(), inst.MaxPathLen())
		if err != nil {
			t.Fatal(err)
		}
		for _, tt := range []struct {
			name string
			T    float64
		}{{"safe", safe}, {"0.05", 0.05}} {
			key := tc.name + "/" + tt.name
			acct := NewAccountant(inst)
			cfg := Config{Policy: pol, UpdatePeriod: tt.T, Horizon: 40 * tt.T, Observer: acct}
			if _, err := Run(context.Background(), inst, cfg, inst.UniformFlow()); err != nil {
				t.Fatal(err)
			}
			got := accountsGolden{len(acct.Accounts), accountsDigest(acct.Accounts)}
			if want, ok := accountantGoldens[key]; !ok || got != want {
				t.Errorf("%s: got %q: {%d, %q}, want %+v", key, key, got.n, got.digest, want)
			}
		}
	}
}
