package topology

import (
	"testing"

	"repro/internal/gsb"
)

func TestSATSearchAgreesWithBacktracking(t *testing.T) {
	// On every instance the chronological search can handle, the CDCL
	// encoding must reach the same verdict.
	specs := func(n int) []gsb.Spec {
		out := []gsb.Spec{
			gsb.Election(n),
			gsb.WSB(n),
			gsb.PerfectRenaming(n),
			gsb.Renaming(n, 2*n-1),
			gsb.Renaming(n, n*(n+1)/2),
			gsb.NewSym(n, 2, 0, n),
		}
		return out
	}
	for _, tc := range []struct{ n, rounds int }{
		{2, 0}, {2, 1}, {2, 2}, {3, 0}, {3, 1}, {4, 1},
	} {
		c := BuildIIS(tc.n, tc.rounds)
		for _, spec := range specs(tc.n) {
			bt := c.backtrackDecisionMap(spec) != nil
			cdcl := c.FindDecisionMap(spec) != nil
			if bt != cdcl {
				t.Fatalf("n=%d r=%d %v: backtracking=%v CDCL=%v", tc.n, tc.rounds, spec, bt, cdcl)
			}
		}
	}
}

func TestSATSearchClosesWSBn3r2(t *testing.T) {
	// The instance that defeats chronological backtracking (see
	// TestWSBImpossibleForPrimePowerN): WSB at n=3, rounds=2. Clause learning exhausts it,
	// completing the Theorem 10 bounded-round certificate series.
	c := BuildIIS(3, 2)
	if got := c.FindDecisionMap(gsb.WSB(3)); got != nil {
		t.Fatalf("WSB n=3 r=2 decision map found: %v; contradicts Theorem 10 (gcd{C(3,i)}=3)", got)
	}
}

func TestSATSearchElectionDeeperRounds(t *testing.T) {
	// Push the election certificate deeper than TestElectionImpossible:
	// n=3 at three rounds has 2197 facets and ~1086 classes, and the CDCL
	// search still exhausts it in milliseconds.
	if Solvable(gsb.Election(2), 4) {
		t.Error("election n=2 solvable at 4 rounds")
	}
	if Solvable(gsb.Election(3), 2) {
		t.Error("election n=3 solvable at 2 rounds")
	}
	if Solvable(gsb.Election(3), 3) {
		t.Error("election n=3 solvable at 3 rounds")
	}
}

func TestSATSearchFiveProcessesOneRound(t *testing.T) {
	// One-round certificates at n=5 (541 facets): WSB (gcd{C(5,i)}=5 not
	// prime), election and perfect renaming all provably unsolvable.
	c := BuildIIS(5, 1)
	for _, spec := range []gsb.Spec{gsb.WSB(5), gsb.Election(5), gsb.PerfectRenaming(5)} {
		if c.FindDecisionMap(spec) != nil {
			t.Errorf("%v solvable in one IIS round for n=5", spec)
		}
	}
	// Positive control at the same size: one-round renaming into
	// n(n+1)/2 = 15 names exists.
	if c.FindDecisionMap(gsb.Renaming(5, 15)) == nil {
		t.Error("15-renaming for n=5 should be one-round solvable")
	}
}

func TestSATSearchPositiveModelsVerify(t *testing.T) {
	// SAT results are double-checked against CheckDecisionMap inside
	// FindDecisionMap; exercise a few satisfiable instances.
	for _, tc := range []struct {
		spec   gsb.Spec
		rounds int
	}{
		{gsb.Renaming(2, 3), 1},
		{gsb.Renaming(3, 6), 1},
		{gsb.NewSym(3, 3, 0, 3), 0},
		{gsb.NewSym(4, 2, 0, 4), 1},
	} {
		c := BuildIIS(tc.spec.N(), tc.rounds)
		if c.FindDecisionMap(tc.spec) == nil {
			t.Errorf("%v at %d rounds: no map found", tc.spec, tc.rounds)
		}
	}
}

func TestSATSearchPanicsOnWrongN(t *testing.T) {
	// TestFindDecisionMapPanicsOnWrongN gives a spec for more processes than
	// the complex has; here the spec is for fewer, which must panic too
	// rather than search the wrong constraint set.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildIIS(3, 1).FindDecisionMap(gsb.Election(2))
}
