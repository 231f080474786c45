package luby

import (
	"math/rand"
	"testing"

	"repro/internal/msgnet"
)

func TestMISOnRings(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 10, 25} {
		for seed := int64(0); seed < 10; seed++ {
			g := msgnet.Ring(n)
			res, err := MIS(g, seed, 10000, nil)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if err := VerifyMIS(g, res.InMIS); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestMISOnCompleteGraph(t *testing.T) {
	// In K_n the MIS is a single vertex.
	for seed := int64(0); seed < 10; seed++ {
		g := msgnet.Complete(8)
		res, err := MIS(g, seed, 10000, nil)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if err := VerifyMIS(g, res.InMIS); err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, in := range res.InMIS {
			if in {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("seed=%d: MIS of K8 has %d vertices", seed, count)
		}
	}
}

func TestMISOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := msgnet.GNP(30, 0.2, rng.Float64)
		res, err := MIS(g, seed, 10000, nil)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if err := VerifyMIS(g, res.InMIS); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestMISDeterministicGivenSeed(t *testing.T) {
	g := msgnet.Ring(12)
	a, err := MIS(g, 7, 10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MIS(msgnet.Ring(12), 7, 10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.InMIS {
		if a.InMIS[v] != b.InMIS[v] {
			t.Fatal("same seed produced different MIS")
		}
	}
}

func TestVerifyMISRejectsBadSets(t *testing.T) {
	g := msgnet.Ring(4)
	if err := VerifyMIS(g, []bool{true, true, false, false}); err == nil {
		t.Error("adjacent pair accepted")
	}
	if err := VerifyMIS(g, []bool{false, false, false, false}); err == nil {
		t.Error("empty set accepted as maximal")
	}
	if err := VerifyMIS(g, []bool{true}); err == nil {
		t.Error("wrong length accepted")
	}
}

func TestColoringOnGraphs(t *testing.T) {
	graphs := map[string]*msgnet.Graph{
		"ring10":    msgnet.Ring(10),
		"K6":        msgnet.Complete(6),
		"singleton": msgnet.NewGraph(1),
	}
	rng := rand.New(rand.NewSource(3))
	graphs["gnp"] = msgnet.GNP(25, 0.3, rng.Float64)
	for name, g := range graphs {
		for seed := int64(0); seed < 10; seed++ {
			res, err := Coloring(g, seed, 10000, nil)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", name, seed, err)
			}
			if err := VerifyColoring(g, res.Colors, g.MaxDegree()+1); err != nil {
				t.Fatalf("%s seed=%d: %v", name, seed, err)
			}
		}
	}
}

func TestVerifyColoringRejects(t *testing.T) {
	g := msgnet.Ring(4)
	if err := VerifyColoring(g, []int{1, 1, 2, 2}, 3); err == nil {
		t.Error("monochromatic edge accepted")
	}
	if err := VerifyColoring(g, []int{1, 2, 1, 0}, 3); err == nil {
		t.Error("uncolored vertex accepted")
	}
	if err := VerifyColoring(g, []int{1, 2, 1, 9}, 3); err == nil {
		t.Error("palette overflow accepted")
	}
	if err := VerifyColoring(g, []int{1}, 3); err == nil {
		t.Error("wrong length accepted")
	}
}

func TestRingThreeColor(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 16, 33, 100, 1000} {
		res, err := RingThreeColor(n, 100000, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n >= 2 {
			if err := VerifyColoring(msgnet.Ring(n), res.Colors, 3); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	}
}

func TestRingThreeColorRoundsGrowSlowly(t *testing.T) {
	// Cole-Vishkin runs in O(log* n) + O(1) rounds; even n = 10^6 must
	// finish in very few rounds.
	res, err := RingThreeColor(1<<20, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 12 {
		t.Errorf("Cole-Vishkin used %d rounds for n=2^20; expected O(log* n)", res.Rounds)
	}
	if err := VerifyColoring(msgnet.Ring(1<<20), res.Colors, 3); err != nil {
		t.Fatal(err)
	}
}

func TestCVStepPreservesDistinctness(t *testing.T) {
	// Property: for any distinct colors a != b (successor chain a -> b),
	// cvStep(a, b) != cvStep(b, c) whenever b != c as well.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		a, b, c := rng.Intn(1024), rng.Intn(1024), rng.Intn(1024)
		if a == b || b == c {
			continue
		}
		if cvStep(a, b) == cvStep(b, c) {
			t.Fatalf("cvStep collision: a=%d b=%d c=%d", a, b, c)
		}
	}
}

func TestCVStepPanicsOnEqual(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cvStep(5, 5)
}
