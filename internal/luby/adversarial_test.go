package luby

import (
	"math/rand"
	"testing"

	"repro/internal/msgnet"
	"repro/internal/stats"
)

// A non-nil adversary runs the baselines under message faults via the
// synchronizer: faults must cost rounds, never correctness, and the
// executions must be deterministic per (seed, adversary).

func testAdv(seed int64) *msgnet.NetAdversary {
	return &msgnet.NetAdversary{Seed: seed, LossProb: 0.15, DelayProb: 0.1, ReorderProb: 0.1}
}

func TestMISWithAdversary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := msgnet.GNP(24, 0.2, rng.Float64)
	res, err := MIS(g, 7, 20000, testAdv(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(g, res.InMIS); err != nil {
		t.Fatalf("MIS under faults is invalid: %v", err)
	}
	// nil adversary is the fault-free run.
	ref, err := MIS(g, 7, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(g, ref.InMIS); err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= ref.Rounds {
		t.Errorf("adversarial run took %d rounds, fault-free %d; synchronization must cost rounds", res.Rounds, ref.Rounds)
	}
	// Determinism per (seed, adversary).
	again, err := MIS(g, 7, 20000, testAdv(11))
	if err != nil {
		t.Fatal(err)
	}
	if again.Rounds != res.Rounds {
		t.Errorf("same seeds: %d rounds vs %d", again.Rounds, res.Rounds)
	}
	for v := range res.InMIS {
		if again.InMIS[v] != res.InMIS[v] {
			t.Fatalf("same seeds: vertex %d membership diverged", v)
		}
	}
}

func TestColoringWithAdversary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := msgnet.GNP(20, 0.25, rng.Float64)
	res, err := Coloring(g, 9, 20000, testAdv(13))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyColoring(g, res.Colors, g.MaxDegree()+1); err != nil {
		t.Fatalf("coloring under faults is invalid: %v", err)
	}
}

// TestRingThreeColorWithAdversaryMatchesFaultFree: Cole-Vishkin is deterministic,
// so the synchronizer-wrapped adversarial run must produce exactly the
// fault-free coloring — the adversary can delay the answer, not change it.
// The 4,096-vertex ring keeps the adversarial round engine honest at a
// size where per-round overhead shows.
func TestRingThreeColorWithAdversaryMatchesFaultFree(t *testing.T) {
	for _, n := range []int{32, 4096} {
		ref, err := RingThreeColor(n, 1000, nil)
		if err != nil {
			t.Fatal(err)
		}
		adv := testAdv(17)
		reg := stats.New()
		adv.Stats = reg
		res, err := RingThreeColor(n, 20000, adv)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for v := range ref.Colors {
			if res.Colors[v] != ref.Colors[v] {
				t.Fatalf("n=%d vertex %d: color %d under faults, %d fault-free", n, v, res.Colors[v], ref.Colors[v])
			}
		}
		if events := reg.Snapshot().Counter(msgnet.MetricAdversaryEvents); events == 0 {
			t.Errorf("n=%d: adversary injected no faults (the test is vacuous)", n)
		}
		if res.Rounds <= ref.Rounds {
			t.Errorf("n=%d: adversarial run took %d rounds, fault-free %d", n, res.Rounds, ref.Rounds)
		}
	}
}
