package nocomm

import (
	"math/rand"
	"testing"

	"repro/internal/gsb"
	"repro/internal/vecmath"
)

func TestTheorem9AgainstIntervalCharacterization(t *testing.T) {
	// The paper's closed form (symmetric case) must agree with the
	// interval-based characterization on every symmetric spec, n <= 8 and
	// m <= 2n-1.
	for n := 2; n <= 8; n++ {
		for m := 1; m <= 2*n-1; m++ {
			for l := 0; l*m <= n; l++ {
				for u := max(l, vecmath.CeilDiv(n, m)); u <= n; u++ {
					spec := gsb.NewSym(n, m, l, u)
					if !spec.Feasible() {
						continue
					}
					if got, want := Solvable(spec), SolvableFormula(spec); got != want {
						t.Fatalf("%v: interval=%v formula=%v", spec, got, want)
					}
				}
			}
		}
	}
}

func TestTheorem9AgainstBruteForce(t *testing.T) {
	// Independent validation: exhaustive search over all decision
	// functions for tiny parameters.
	for n := 2; n <= 4; n++ {
		maxM := 2*n - 1
		if n == 4 {
			maxM = 4 // keep m^(2n-1) manageable
		}
		for m := 1; m <= maxM; m++ {
			for l := 0; l*m <= n; l++ {
				for u := max(l, vecmath.CeilDiv(n, m)); u <= n; u++ {
					spec := gsb.NewSym(n, m, l, u)
					if !spec.Feasible() {
						continue
					}
					if got, want := Solvable(spec), BruteForceSolvable(spec); got != want {
						t.Fatalf("%v: characterization=%v bruteforce=%v", spec, got, want)
					}
				}
			}
		}
	}
}

func TestBuildProducesVerifiedSolutions(t *testing.T) {
	for n := 2; n <= 8; n++ {
		for m := 1; m <= 2*n-1; m++ {
			for u := vecmath.CeilDiv(n, m); u <= n; u++ {
				spec := gsb.NewSym(n, m, 0, u)
				delta, ok := Build(spec)
				if ok != Solvable(spec) {
					t.Fatalf("%v: Build ok=%v but Solvable=%v", spec, ok, Solvable(spec))
				}
				if !ok {
					continue
				}
				if err := Verify(spec, delta); err != nil {
					t.Fatalf("%v: built delta fails: %v", spec, err)
				}
				if n <= 6 {
					if err := VerifyExhaustive(spec, delta); err != nil {
						t.Fatalf("%v: built delta fails exhaustively: %v", spec, err)
					}
				}
			}
		}
	}
}

func TestBuildAsymmetric(t *testing.T) {
	// The interval characterization generalizes Theorem 9 to asymmetric
	// specs: e.g. <4,[0,0],[2,4]> is solvable (value 2 can absorb all) but
	// election never is.
	solvable := gsb.NewAsym(4, []int{0, 0}, []int{2, 4})
	delta, ok := Build(solvable)
	if !ok {
		t.Fatalf("%v should be solvable without communication", solvable)
	}
	if err := VerifyExhaustive(solvable, delta); err != nil {
		t.Fatal(err)
	}
	if _, ok := Build(gsb.Election(4)); ok {
		t.Fatal("election must not be solvable without communication")
	}
}

func TestVerifyMatchesVerifyExhaustive(t *testing.T) {
	// The group-size argument and explicit subset enumeration must agree
	// on random decision functions.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4) // 2..5
		m := 1 + rng.Intn(2*n-1)
		l := rng.Intn(n/m + 1)
		u := l + rng.Intn(n-l+1)
		if u == 0 {
			u = 1
		}
		spec := gsb.NewSym(n, m, l, u)
		delta := make(DecisionFunc, IDSpace(n))
		for i := range delta {
			delta[i] = 1 + rng.Intn(m)
		}
		fast := Verify(spec, delta)
		slow := VerifyExhaustive(spec, delta)
		if (fast == nil) != (slow == nil) {
			t.Fatalf("%v delta=%v: Verify=%v VerifyExhaustive=%v", spec, delta, fast, slow)
		}
	}
}

func TestCorollary3WSBNotSolvable(t *testing.T) {
	for n := 2; n <= 10; n++ {
		if Solvable(gsb.WSB(n)) {
			t.Errorf("WSB(%d) must not be communication-free solvable", n)
		}
	}
}

func TestTrivialRenamingSolvable(t *testing.T) {
	// <n,2n-1,0,1>-GSB (classic (2n-1)-renaming with ids in [1..2n-1]) is
	// solvable by outputting one's own identity.
	for n := 2; n <= 8; n++ {
		spec := gsb.Renaming(n, 2*n-1)
		if !Solvable(spec) {
			t.Fatalf("(2n-1)-renaming should be communication-free for n=%d", n)
		}
		delta := IdentityRenaming(n)
		if err := Verify(spec, delta); err != nil {
			t.Fatalf("identity delta fails: %v", err)
		}
	}
	// (2n-2)-renaming is NOT communication-free (and in fact not always
	// wait-free solvable at all).
	for n := 2; n <= 8; n++ {
		if Solvable(gsb.Renaming(n, 2*n-2)) {
			t.Errorf("(2n-2)-renaming must not be communication-free for n=%d", n)
		}
	}
}

func TestCorollary2BoundedHomonymous(t *testing.T) {
	for n := 2; n <= 8; n++ {
		for x := 1; x <= n; x++ {
			spec := gsb.BoundedHomonymous(n, x)
			delta := BoundedHomonymous(n, x)
			if err := Verify(spec, delta); err != nil {
				t.Fatalf("n=%d x=%d: %v", n, x, err)
			}
			if !Solvable(spec) {
				t.Fatalf("n=%d x=%d: spec should be solvable", n, x)
			}
		}
	}
}

func TestPerfectRenamingNotSolvable(t *testing.T) {
	for n := 2; n <= 8; n++ {
		if Solvable(gsb.PerfectRenaming(n)) {
			t.Errorf("perfect renaming must not be communication-free for n=%d", n)
		}
	}
}

func TestKSlotNotSolvable(t *testing.T) {
	// Any task with l >= 1 and m > 1 is not communication-free
	// (Theorem 9).
	for n := 3; n <= 8; n++ {
		for k := 2; k <= n-1; k++ {
			if Solvable(gsb.KSlot(n, k)) {
				t.Errorf("%d-slot must not be communication-free for n=%d", k, n)
			}
		}
	}
}

func TestM1AlwaysSolvable(t *testing.T) {
	for n := 1; n <= 6; n++ {
		spec := gsb.NewSym(n, 1, 0, n)
		if !Solvable(spec) || !SolvableFormula(spec) {
			t.Errorf("m=1 spec %v should be trivially solvable", spec)
		}
		delta, ok := Build(spec)
		if !ok {
			t.Fatalf("Build failed for %v", spec)
		}
		if err := Verify(spec, delta); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVerifyRejectsBadDeltas(t *testing.T) {
	spec := gsb.WSB(3)
	// Wrong length.
	if err := Verify(spec, DecisionFunc{1, 2}); err == nil {
		t.Error("short delta accepted")
	}
	// Out-of-range value.
	if err := Verify(spec, DecisionFunc{1, 2, 3, 1, 2}); err == nil {
		t.Error("out-of-range delta accepted")
	}
	// All-same (violates WSB upper bound n-1 when all participants land
	// in one group).
	if err := Verify(spec, DecisionFunc{1, 1, 1, 1, 1}); err == nil {
		t.Error("constant delta accepted for WSB")
	}
}

func TestInfeasibleNotSolvable(t *testing.T) {
	if Solvable(gsb.NewSym(5, 2, 0, 1)) {
		t.Error("infeasible spec reported solvable")
	}
	if SolvableFormula(gsb.NewSym(5, 2, 0, 1)) {
		t.Error("infeasible spec reported solvable by formula")
	}
}
