package meanfield

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

// The goldens below pin the count engine's exact trajectories: final counts,
// the FinalPotential bits and the phase count of million-agent runs on
// Braess and on a 64-path layered DAG, for the replicator and the uniform
// linear policy at the safe period and at T = 0.05. Any change to the
// variate stream, the multinomial chain or the round structure moves them.

type countGolden struct {
	phases int
	counts []int64
	phi    uint64 // math.Float64bits(FinalPotential)
}

// Captured from the count engine before its variate kernels were optimised.
var countGoldens = map[string]countGolden{
	"braess/replicator/safe": {
		phases: 40, phi: 0x3ff0cacc33925929,
		counts: []int64{222564, 554978, 222458},
	},
	"braess/replicator/0.05": {
		phases: 40, phi: 0x3ff168cd4b4996d8,
		counts: []int64{296629, 406413, 296958},
	},
	"braess/uniform/safe": {
		phases: 40, phi: 0x3ff0f21cd46c722e,
		counts: []int64{243179, 513751, 243070},
	},
	"braess/uniform/0.05": {
		phases: 40, phi: 0x3ff170a1a9a75dbc,
		counts: []int64{299843, 400007, 300150},
	},
	"layered/replicator/safe": {
		phases: 40, phi: 0x3ff2e6303afdbd76,
		counts: []int64{
			16145, 22907, 33036, 14629, 12779, 11424, 22155, 15385, 16638, 9247, 19642, 12867,
			21102, 10274, 14949, 23414, 8989, 13127, 18674, 8329, 8125, 7104, 14341, 9796,
			17796, 9836, 20884, 13649, 13956, 6831, 9699, 15254, 7772, 11225, 16150, 7103,
			16256, 14427, 28758, 19321, 19470, 10766, 22973, 14934, 25183, 12139, 17676, 27491,
			13440, 19123, 27291, 12064, 12438, 11084, 21992, 14907, 13078, 7253, 15562, 9942,
			23306, 11376, 16640, 25877,
		},
	},
	"layered/replicator/0.05": {
		phases: 40, phi: 0x3ff3f202f406b40f,
		counts: []int64{
			16026, 17056, 18539, 15611, 15289, 14785, 17160, 15833, 16114, 14136, 16728, 15224,
			16912, 14434, 15817, 17277, 14104, 14882, 16292, 13720, 13731, 13270, 15427, 14211,
			16073, 14146, 16712, 15228, 15333, 13192, 14414, 15533, 13853, 14689, 16074, 13473,
			15930, 15474, 18050, 16542, 16598, 14607, 17247, 15724, 17511, 14983, 16440, 17727,
			15398, 16352, 17831, 15033, 15147, 14625, 17042, 15704, 15310, 13415, 15866, 14503,
			17178, 14765, 16104, 17596,
		},
	},
	"layered/uniform/safe": {
		phases: 40, phi: 0x3ff314862b5f312f,
		counts: []int64{
			16625, 21750, 27615, 15298, 13537, 12006, 21787, 15898, 17136, 9853, 19572, 13449,
			20593, 10841, 15578, 22050, 9700, 13449, 18791, 8734, 8608, 7592, 14867, 10243,
			17930, 10467, 20379, 14116, 14570, 7305, 10549, 15761, 8470, 11879, 16713, 7591,
			16621, 14989, 25369, 19299, 19440, 11602, 21985, 15497, 23150, 12877, 17993, 24778,
			14020, 18967, 24674, 12868, 13058, 11693, 21127, 15486, 13688, 7763, 16012, 10639,
			22289, 12075, 17090, 23649,
		},
	},
	"layered/uniform/0.05": {
		phases: 40, phi: 0x3ff3f5a03ccc9d39,
		counts: []int64{
			16043, 16930, 18313, 15640, 15289, 14771, 17133, 15853, 16135, 14154, 16710, 15253,
			16916, 14539, 15848, 17057, 14087, 14959, 16294, 13837, 13748, 13261, 15526, 14228,
			16044, 14259, 16702, 15263, 15329, 13223, 14321, 15639, 13884, 14785, 16053, 13649,
			16006, 15462, 17908, 16522, 16564, 14669, 17223, 15715, 17338, 15003, 16393, 17679,
			15365, 16291, 17562, 15071, 15188, 14671, 17018, 15687, 15329, 13590, 15938, 14544,
			17138, 14766, 16189, 17496,
		},
	},
}

// goldenPhases is the phase budget of every golden run (Horizon =
// goldenPhases·T), so the safe-period and T = 0.05 runs do comparable work.
const goldenPhases = 40

func TestCountEngineGoldens(t *testing.T) {
	layered, err := topo.LayeredRandom(3, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if layered.NumPaths() != 64 {
		t.Fatalf("layered golden instance has %d paths, want 64", layered.NumPaths())
	}
	for _, tc := range []struct {
		name string
		inst *flow.Instance
	}{{"braess", braess(t)}, {"layered", layered}} {
		inst := tc.inst
		for _, pc := range []struct {
			name string
			mk   func(lmax float64) (policy.Policy, error)
		}{{"replicator", policy.Replicator}, {"uniform", policy.UniformLinear}} {
			pol, err := pc.mk(inst.LMax())
			if err != nil {
				t.Fatal(err)
			}
			safe, err := policy.SafeUpdatePeriodFor(pol, inst.Beta(), inst.MaxPathLen())
			if err != nil {
				t.Fatal(err)
			}
			for _, tt := range []struct {
				name string
				T    float64
			}{{"safe", safe}, {"0.05", 0.05}} {
				key := tc.name + "/" + pc.name + "/" + tt.name
				s, err := New(inst, Config{
					N:            1_000_000,
					Policy:       pol,
					UpdatePeriod: tt.T,
					Horizon:      goldenPhases * tt.T,
					Seed:         11,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				want, ok := countGoldens[key]
				if !ok {
					t.Errorf("%s: no golden; got %#v", key, countGolden{res.Phases, s.Counts(), math.Float64bits(res.FinalPotential)})
					continue
				}
				if res.Phases != want.phases {
					t.Errorf("%s: Phases = %d, want %d", key, res.Phases, want.phases)
				}
				if got := s.Counts(); !slices.Equal(got, want.counts) {
					t.Errorf("%s: counts = %v, want %v", key, got, want.counts)
				}
				if got := math.Float64bits(res.FinalPotential); got != want.phi {
					t.Errorf("%s: FinalPotential bits = %#x (%.17g), want %#x (%.17g)",
						key, got, res.FinalPotential, want.phi, math.Float64frombits(want.phi))
				}
			}
		}
	}
}

// TestBinomialDigest pins the exact Binomial variate stream: the SHA-256 of
// 1.2 million draws over a grid covering every sampling regime — tiny means
// (where most draws are zero), means near one, means on both sides of the
// inversion cutoff of 30 (the upper side takes the normal approximation),
// and p > 1/2 (the symmetry reflection).
func TestBinomialDigest(t *testing.T) {
	grid := []struct {
		n int64
		p float64
	}{
		{1_000_000, 1e-9}, {1000, 1e-6}, {50, 1e-4}, {10, 0.01}, // tiny np
		{100, 0.01}, {1_000_000, 1e-6}, {3, 0.3}, {7, 0.15}, // np ≈ 1
		{1000, 0.0299}, {60, 0.5}, {1000, 0.031}, {1 << 40, 1e-11}, // np near 30
		{20, 0.9}, {1_000_000, 0.999999}, {50, 0.6}, // p > 1/2
	}
	const perCell = 80_000
	r := NewRNG(2024)
	h := sha256.New()
	var buf [8]byte
	for _, c := range grid {
		for i := 0; i < perCell; i++ {
			binary.LittleEndian.PutUint64(buf[:], uint64(r.Binomial(c.n, c.p)))
			h.Write(buf[:])
		}
	}
	const want = "220f02c80b6d02f27099b82fa4afc141e5bfd40e910b3d250bc5a4691357f1e5"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Binomial stream digest = %s, want %s", got, want)
	}
}
