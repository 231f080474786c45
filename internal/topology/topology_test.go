package topology

import (
	"testing"

	"repro/internal/gsb"
	"repro/internal/iis"
	"repro/internal/sched"
)

func TestOSPCounts(t *testing.T) {
	// Ordered Bell numbers (Fubini numbers).
	want := []int{1, 1, 3, 13, 75, 541}
	for n := 0; n <= 5; n++ {
		if got := len(OSPs(n)); got != want[n] {
			t.Errorf("|OSPs(%d)| = %d, want %d", n, got, want[n])
		}
	}
}

func TestOSPsArePartitions(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for _, osp := range OSPs(n) {
			seen := map[int]bool{}
			for _, block := range osp {
				if len(block) == 0 {
					t.Fatalf("empty block in %v", osp)
				}
				for _, e := range block {
					if e < 0 || e >= n || seen[e] {
						t.Fatalf("bad element %d in %v", e, osp)
					}
					seen[e] = true
				}
			}
			if len(seen) != n {
				t.Fatalf("%v does not cover {0..%d}", osp, n-1)
			}
		}
	}
}

func TestComplexSizes(t *testing.T) {
	tests := []struct {
		n, rounds        int
		facets, vertices int
	}{
		{1, 1, 1, 1},
		{2, 0, 1, 2},
		{2, 1, 3, 4},
		{2, 2, 9, 10},
		{3, 1, 13, 12}, // vertices: n * 2^(n-1) = 12
		{4, 1, 75, 32}, // 4 * 8
	}
	for _, tc := range tests {
		c := BuildIIS(tc.n, tc.rounds)
		if len(c.Facets) != tc.facets {
			t.Errorf("n=%d r=%d: %d facets, want %d", tc.n, tc.rounds, len(c.Facets), tc.facets)
		}
		if len(c.Vertices) != tc.vertices {
			t.Errorf("n=%d r=%d: %d vertices, want %d", tc.n, tc.rounds, len(c.Vertices), tc.vertices)
		}
	}
}

func TestComplexStructure(t *testing.T) {
	for _, tc := range []struct{ n, rounds int }{
		{2, 1}, {2, 2}, {2, 3}, {3, 1}, {3, 2}, {4, 1},
	} {
		c := BuildIIS(tc.n, tc.rounds)
		if !c.IsPseudomanifold() {
			t.Errorf("n=%d r=%d: not a pseudomanifold", tc.n, tc.rounds)
		}
		if !c.IsStronglyConnected() {
			t.Errorf("n=%d r=%d: not strongly connected", tc.n, tc.rounds)
		}
		if tc.n >= 2 && c.BoundaryRidges() == 0 {
			t.Errorf("n=%d r=%d: subdivided simplex must have a boundary", tc.n, tc.rounds)
		}
	}
}

func TestSoloClassSharedByAllProcesses(t *testing.T) {
	// Comparison-based algorithms decide the same value in every solo
	// execution (the key step of Theorem 11's proof): all n solo vertices
	// must be in one class.
	for _, tc := range []struct{ n, rounds int }{{2, 1}, {2, 2}, {3, 1}, {3, 2}, {4, 1}} {
		c := BuildIIS(tc.n, tc.rounds)
		solo := c.ClassOfSolo()
		count := 0
		for _, v := range c.Vertices {
			if v.Class == solo {
				count++
			}
		}
		if count != tc.n {
			t.Errorf("n=%d r=%d: solo class has %d vertices, want %d", tc.n, tc.rounds, count, tc.n)
		}
	}
}

func TestElectionImpossible(t *testing.T) {
	// Theorem 11 (bounded-round certificates): no comparison-based
	// protocol solves election in r IIS rounds.
	for _, tc := range []struct{ n, rounds int }{
		{2, 0}, {2, 1}, {2, 2}, {2, 3},
		{3, 0}, {3, 1}, {3, 2},
		{4, 1},
	} {
		if Solvable(gsb.Election(tc.n), tc.rounds) {
			t.Errorf("election n=%d solvable in %d rounds; contradicts Theorem 11", tc.n, tc.rounds)
		}
	}
}

func TestPerfectRenamingImpossible(t *testing.T) {
	// Corollary 5 certificates.
	for _, tc := range []struct{ n, rounds int }{
		{2, 0}, {2, 1}, {2, 2}, {2, 3},
		{3, 0}, {3, 1}, {3, 2},
		{4, 1},
	} {
		if Solvable(gsb.PerfectRenaming(tc.n), tc.rounds) {
			t.Errorf("perfect renaming n=%d solvable in %d rounds; contradicts Corollary 5", tc.n, tc.rounds)
		}
	}
}

func TestWSBImpossibleForPrimePowerN(t *testing.T) {
	// Theorem 10: for n = 2, 3, 4 (prime powers), WSB is not wait-free
	// solvable; certify for small round counts. (n=3, r=2 is excluded:
	// WSB's not-all-equal constraints prune too weakly for the
	// chronological backtracking search to exhaust that instance in
	// reasonable time; TestSATSearchClosesWSBn3r2 closes it.)
	for _, tc := range []struct{ n, rounds int }{
		{2, 1}, {2, 2}, {2, 3},
		{3, 1},
		{4, 1},
	} {
		if Solvable(gsb.WSB(tc.n), tc.rounds) {
			t.Errorf("WSB n=%d solvable in %d rounds; contradicts Theorem 10 (gcd not prime)", tc.n, tc.rounds)
		}
	}
}

func TestPositiveControls(t *testing.T) {
	// Tasks that ARE solvable must admit decision maps, and the maps must
	// verify on every facet.
	tests := []struct {
		name   string
		spec   gsb.Spec
		rounds int
	}{
		{"m=1 trivial at 0 rounds", gsb.NewSym(3, 1, 0, 3), 0},
		{"loose slot-free task at 0 rounds", gsb.NewSym(3, 3, 0, 3), 0},
		{"3-renaming n=2 at 1 round", gsb.Renaming(2, 3), 1},
		{"6-renaming n=3 at 1 round", gsb.Renaming(3, 6), 1},
		{"2-bounded homonymous n=2", gsb.NewSym(2, 2, 0, 2), 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := BuildIIS(tc.spec.N(), tc.rounds)
			m := c.FindDecisionMap(tc.spec)
			if m == nil {
				t.Fatalf("no decision map found for %v at %d rounds", tc.spec, tc.rounds)
			}
			if err := c.CheckDecisionMap(tc.spec, m); err != nil {
				t.Fatalf("returned map fails verification: %v", err)
			}
		})
	}
}

func TestRenamingLowerBoundAtOneRound(t *testing.T) {
	// One IIS round cannot solve (2n-1)-renaming for n >= 2 (the
	// comparison-based one-round protocols reach only n(n+1)/2 names);
	// n=2: 3-renaming IS solvable in one round (3 = n(n+1)/2), but n=3:
	// 5-renaming in one round must fail while 6-renaming succeeds.
	if Solvable(gsb.Renaming(3, 5), 1) {
		t.Error("5-renaming for n=3 should not be solvable in one IIS round")
	}
	if !Solvable(gsb.Renaming(3, 6), 1) {
		t.Error("6-renaming for n=3 should be solvable in one IIS round")
	}
}

func TestCheckDecisionMapRejectsBadMaps(t *testing.T) {
	c := BuildIIS(2, 1)
	spec := gsb.Renaming(2, 3)
	bad := make([]int, c.Classes)
	for i := range bad {
		bad[i] = 1 // everyone decides 1: violates distinctness
	}
	if err := c.CheckDecisionMap(spec, bad); err == nil {
		t.Error("constant map accepted for renaming")
	}
	if err := c.CheckDecisionMap(spec, []int{1}); err == nil {
		t.Error("short map accepted")
	}
}

func TestBuildIISValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { BuildIIS(0, 1) },
		func() { BuildIIS(2, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFindDecisionMapPanicsOnWrongN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildIIS(2, 1).FindDecisionMap(gsb.Election(3))
}

func TestComplexMatchesExecutableIIS(t *testing.T) {
	// Every execution of the real iis package must correspond to a facet
	// of the combinatorial complex (same full-information views).
	for _, tc := range []struct{ n, rounds int }{{2, 1}, {2, 2}, {3, 1}, {3, 2}} {
		c := BuildIIS(tc.n, tc.rounds)
		for seed := int64(0); seed < 25; seed++ {
			presents := make([][][]bool, tc.n) // [proc][round] participation
			it := iis.NewIterated[int]("X", tc.n, tc.rounds)
			r := sched.NewRunner(tc.n, sched.DefaultIDs(tc.n), sched.NewRandom(seed),
				sched.WithMaxSteps(1<<20))
			_, err := r.Run(func(p *sched.Proc) {
				views := it.Run(p, p.Index())
				masks := make([][]bool, tc.rounds)
				for k, v := range views {
					masks[k] = append([]bool(nil), v.Present...)
				}
				p.Exec("record", func() any { presents[p.Index()] = masks; return nil })
				p.Decide(1)
			})
			if err != nil {
				t.Fatalf("n=%d r=%d seed=%d: %v", tc.n, tc.rounds, seed, err)
			}
			present := func(proc, round int) []bool { return presents[proc][round] }
			keys := make([]string, tc.n)
			for i := 0; i < tc.n; i++ {
				keys[i] = ReconstructKey(i, tc.n, tc.rounds, present)
				if !c.HasVertexKey(keys[i]) {
					t.Fatalf("n=%d r=%d seed=%d: executable view of %d (%s) not a complex vertex",
						tc.n, tc.rounds, seed, i, keys[i])
				}
			}
			if !c.HasFacetKeys(keys) {
				t.Fatalf("n=%d r=%d seed=%d: executable run %v is not a facet", tc.n, tc.rounds, seed, keys)
			}
		}
	}
}
