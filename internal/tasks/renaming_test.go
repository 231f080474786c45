package tasks

import (
	"testing"

	"repro/internal/gsb"
	"repro/internal/sched"
)

func TestSnapshotRenamingSolves2NMinus1Renaming(t *testing.T) {
	// Full participation: distinct names in [1..2n-1] (the <n,2n-1,0,1>-GSB
	// task), across sizes and schedules.
	for n := 1; n <= 6; n++ {
		spec := gsb.Renaming(n, 2*n-1)
		for seed := int64(0); seed < 25; seed++ {
			_, err := RunVerified(spec, sched.DefaultIDs(n), sched.NewRandom(seed),
				func(n int) Solver { return NewSnapshotRenaming("R", n) })
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestSnapshotRenamingWithSparseIDs(t *testing.T) {
	// Identities from a larger space [1..N]; names must still land in
	// [1..2n-1] (the protocol is comparison-based, not value-based).
	ids := []int{97, 3, 41, 15}
	spec := gsb.Renaming(4, 7)
	for seed := int64(0); seed < 20; seed++ {
		_, err := RunVerified(spec, ids, sched.NewRandom(seed),
			func(n int) Solver { return NewSnapshotRenaming("R", n) })
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestSnapshotRenamingAdaptive(t *testing.T) {
	// Adaptivity: with p participants (the rest crashed before any step),
	// every decided name is at most 2p-1.
	n := 6
	for p := 1; p <= n; p++ {
		for seed := int64(0); seed < 15; seed++ {
			var policy sched.Policy = sched.NewRandom(seed)
			for i := p; i < n; i++ {
				policy = &sched.CrashAt{Inner: policy, Proc: i, StepsBeforeCrash: 0}
			}
			res, err := Run(n, sched.DefaultIDs(n), policy,
				func(n int) Solver { return NewSnapshotRenaming("R", n) })
			if err != nil {
				t.Fatalf("p=%d seed=%d: %v", p, seed, err)
			}
			seen := map[int]bool{}
			for i := 0; i < p; i++ {
				if !res.Decided[i] {
					t.Fatalf("p=%d seed=%d: participant %d undecided", p, seed, i)
				}
				name := res.Outputs[i]
				if name < 1 || name > 2*p-1 {
					t.Fatalf("p=%d seed=%d: name %d outside adaptive bound [1..%d]",
						p, seed, name, 2*p-1)
				}
				if seen[name] {
					t.Fatalf("p=%d seed=%d: duplicate name %d", p, seed, name)
				}
				seen[name] = true
			}
		}
	}
}

func TestSnapshotRenamingComparisonBasedAndIndexIndependent(t *testing.T) {
	ids := []int{9, 2, 14}
	build := func() sched.Body { return Body(NewSnapshotRenaming("R", 3)) }
	alts := [][]int{sched.OrderIsomorphicIDs(ids, 50), sched.OrderIsomorphicIDs(ids, 1)}
	if err := sched.CheckComparisonBased(3, ids, sched.NewRandom(4), build, alts); err != nil {
		t.Fatal(err)
	}
	perms := [][]int{{2, 0, 1}}
	if err := sched.CheckIndexIndependence(3, ids, sched.NewRandom(4), build, perms); err != nil {
		t.Fatal(err)
	}
}

func TestGridRenamingUniqueInRange(t *testing.T) {
	for n := 1; n <= 6; n++ {
		spec := gsb.Renaming(n, n*(n+1)/2)
		for seed := int64(0); seed < 25; seed++ {
			_, err := RunVerified(spec, sched.DefaultIDs(n), sched.NewRandom(seed),
				func(n int) Solver { return NewGridRenaming("G", n) })
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestGridRenamingWithCrashes(t *testing.T) {
	n := 5
	spec := gsb.Renaming(n, n*(n+1)/2)
	for seed := int64(0); seed < 25; seed++ {
		_, err := RunVerified(spec, sched.DefaultIDs(n),
			sched.NewRandomCrash(seed, 0.03, n-1),
			func(n int) Solver { return NewGridRenaming("G", n) })
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestGridNameSpace(t *testing.T) {
	if got := NewGridRenaming("G", 4).NameSpace(); got != 10 {
		t.Errorf("NameSpace = %d, want 10", got)
	}
}

func TestSplitterSolo(t *testing.T) {
	sp := NewSplitter("S")
	r := sched.NewRunner(1, []int{7}, sched.NewRoundRobin())
	_, err := r.Run(func(p *sched.Proc) {
		if d := sp.Split(p, p.ID()); d != Stop {
			t.Errorf("solo splitter returned %v, want stop", d)
		}
		p.Decide(1)
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

func TestSplitterProperties(t *testing.T) {
	// At most one process stops; if k enter, not all go right and not all
	// go down.
	for n := 2; n <= 5; n++ {
		for seed := int64(0); seed < 40; seed++ {
			sp := NewSplitter("S")
			dirs := make([]Direction, n)
			r := sched.NewRunner(n, sched.DefaultIDs(n), sched.NewRandom(seed))
			_, err := r.Run(func(p *sched.Proc) {
				d := sp.Split(p, p.ID())
				p.Exec("record", func() any { dirs[p.Index()] = d; return nil })
				p.Decide(1)
			})
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			stops, rights, downs := 0, 0, 0
			for _, d := range dirs {
				switch d {
				case Stop:
					stops++
				case Right:
					rights++
				case Down:
					downs++
				}
			}
			if stops > 1 {
				t.Fatalf("n=%d seed=%d: %d processes stopped", n, seed, stops)
			}
			if rights == n {
				t.Fatalf("n=%d seed=%d: all processes went right", n, seed)
			}
			if downs == n {
				t.Fatalf("n=%d seed=%d: all processes went down", n, seed)
			}
		}
	}
}

func TestDirectionString(t *testing.T) {
	if Stop.String() != "stop" || Right.String() != "right" || Down.String() != "down" {
		t.Error("Direction.String misbehaves")
	}
	if Direction(9).String() == "" {
		t.Error("unknown direction renders empty")
	}
}
