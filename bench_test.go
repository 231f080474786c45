// Benchmarks regenerating the paper's artifacts (one benchmark per table
// and figure) plus ablations over the repository's substrates and
// protocol alternatives. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gsb"
	"repro/internal/harness"
	"repro/internal/iis"
	"repro/internal/luby"
	"repro/internal/mem"
	"repro/internal/msgnet"
	"repro/internal/nocomm"
	"repro/internal/sched"
	"repro/internal/sched/schedtest"
	"repro/internal/solvability"
	"repro/internal/tasks"
	"repro/internal/topology"
	"repro/internal/universal"
)

// BenchmarkTable1 regenerates Table 1 (kernel sets, synonym classes and
// canonical flags of the <n,m,-,-> family); the paper's instance is n=6,
// m=3, and larger instances probe the kernel enumeration's scaling.
func BenchmarkTable1(b *testing.B) {
	for _, tc := range []struct{ n, m int }{{6, 3}, {12, 4}, {20, 5}} {
		b.Run(fmt.Sprintf("n=%d/m=%d", tc.n, tc.m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if out := harness.Table1(tc.n, tc.m); len(out) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// BenchmarkFigure1 regenerates Figure 1 (canonical representatives and
// the strict-inclusion Hasse diagram).
func BenchmarkFigure1(b *testing.B) {
	for _, tc := range []struct{ n, m int }{{6, 3}, {10, 3}, {12, 4}} {
		b.Run(fmt.Sprintf("n=%d/m=%d", tc.n, tc.m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reps := gsb.CanonicalFamily(tc.n, tc.m)
				if len(gsb.Hasse(reps)) == 0 && len(reps) > 1 {
					b.Fatal("no Hasse edges")
				}
			}
		})
	}
}

// BenchmarkFigure2 runs the Figure 2 algorithm ((n+1)-renaming from the
// (n-1)-slot task) under seeded random schedules across system sizes.
func BenchmarkFigure2(b *testing.B) {
	for _, n := range []int{3, 5, 8, 12} {
		spec := gsb.Renaming(n, n+1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seed := int64(i)
				_, err := tasks.RunVerified(spec, sched.DefaultIDs(n), sched.NewRandom(seed),
					func(n int) tasks.Solver {
						return tasks.NewSlotRenaming("F2", n, mem.SlotBox("KS", n, n-1, seed))
					})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExploreSchedules measures the exhaustive schedule-exploration
// engine on the <6,3,-,-> family: a budget-bounded walk of the schedule
// tree of the hardest member solved via the Theorem 8 universal
// construction, comparing the sequential depth-first baseline against the
// work-stealing engine at increasing worker counts. On multi-core hosts
// the workers=4/8 rows show the wall-clock speedup of parallel stateless
// re-execution; single-core hosts show that the engine adds no overhead.
func BenchmarkExploreSchedules(b *testing.B) {
	spec := gsb.Hardest(6, 3)
	const budget = 256
	n := spec.N()
	build := func() sched.Body {
		return tasks.Body(universal.New(spec, tasks.NewTASRenaming("TAS", n)))
	}
	check := func(res *sched.Result) error {
		out, err := res.DecidedVector()
		if err != nil {
			return err
		}
		return spec.Verify(out)
	}
	exhaust := func(b *testing.B, count int, err error) {
		b.Helper()
		if err != nil && !errors.Is(err, sched.ErrExplorationBudget) {
			b.Fatal(err)
		}
		if count != budget {
			b.Fatalf("explored %d schedules, want the full budget %d", count, budget)
		}
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			count, err := schedtest.ExploreSequential(n, sched.DefaultIDs(n), budget, 1<<20, build, check)
			exhaust(b, count, err)
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				count, err := sched.Explore(context.Background(), n, sched.DefaultIDs(n),
					sched.ExploreOptions{Workers: workers, MaxRuns: budget, MaxSteps: 1 << 20}, build, check)
				exhaust(b, count, err)
			}
		})
	}
	// The same budgeted walk with partial-order reduction: the budget now
	// bounds executed runs (schedules plus pruned probes), so the row
	// measures the per-run overhead of the sleep-set machinery.
	b.Run("por/workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := sched.Explore(context.Background(), n, sched.DefaultIDs(n),
				sched.ExploreOptions{Workers: 1, MaxRuns: budget, MaxSteps: 1 << 20, Reduction: sched.ReductionSleepSets}, build, check)
			if err != nil && !errors.Is(err, sched.ErrExplorationBudget) {
				b.Fatal(err)
			}
		}
	})

	// Reduction-factor rows: full explorations that only complete because
	// of the reduction. The Theorem 8 oracle-box protocol for the hardest
	// <n,3> member takes exactly 2 steps per process (box invoke, decide),
	// so the exhaustive tree is the exact multinomial (2n)!/2^n while the
	// reduced walk visits one schedule per order of the n conflicting box
	// invocations — n! trace classes. At <6,3> that is a 10395x reduction;
	// the <7,3> instance (681,080,400 schedules) is newly reachable: no
	// worker count finishes it exhaustively, reduction explores it
	// completely in seconds.
	for _, bn := range []int{6, 7} {
		bn := bn
		b.Run(fmt.Sprintf("reduction-factor/box-%d-3", bn), func(b *testing.B) {
			bspec := gsb.Hardest(bn, 3)
			bbuild := func() sched.Body {
				return tasks.Body(tasks.NewBoxSolver(mem.NewTaskBox("B", bspec, 1)))
			}
			bcheck := func(res *sched.Result) error {
				out, err := res.DecidedVector()
				if err != nil {
					return err
				}
				return bspec.Verify(out)
			}
			exhaustive := 1 // (2n)!/2^n interleavings of n 2-step processes
			for i := 2; i <= 2*bn; i++ {
				exhaustive *= i
			}
			for i := 0; i < bn; i++ {
				exhaustive /= 2
			}
			classes := 1 // n! orders of the conflicting box invocations
			for i := 2; i <= bn; i++ {
				classes *= i
			}
			var count int
			for i := 0; i < b.N; i++ {
				var err error
				count, err = sched.Explore(context.Background(), bn, sched.DefaultIDs(bn),
					sched.ExploreOptions{MaxRuns: 1 << 22, Reduction: sched.ReductionSleepSets}, bbuild, bcheck)
				if err != nil {
					b.Fatal(err)
				}
				if count != classes {
					b.Fatalf("reduced exploration visited %d schedules, want %d trace classes", count, classes)
				}
			}
			b.ReportMetric(float64(exhaustive)/float64(count), "reduction_x")
		})
	}
}

// BenchmarkExploreCrashSweep measures the randomized crash-injection
// sweep mode of the exploration engine on the <6,3,-,-> family hardest
// member, across worker counts.
func BenchmarkExploreCrashSweep(b *testing.B) {
	spec := gsb.Hardest(6, 3)
	const sweeps = 256
	n := spec.N()
	build := func(n int) tasks.Solver {
		return universal.New(spec, tasks.NewTASRenaming("TAS", n))
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				count, err := tasks.ExploreVerified(context.Background(), spec, sched.DefaultIDs(n),
					sched.ExploreOptions{Workers: workers, CrashRuns: sweeps, CrashProb: 0.02, Seed: int64(i)}, build)
				if err != nil {
					b.Fatal(err)
				}
				if count != sweeps {
					b.Fatalf("swept %d runs, want %d", count, sweeps)
				}
			}
		})
	}
}

// BenchmarkRenamingProtocols compares the two from-scratch wait-free
// renaming algorithms: the adaptive snapshot-based (2n-1)-renaming and
// the Moir-Anderson splitter grid (n(n+1)/2 names) — smaller name space
// versus cheaper steps.
func BenchmarkRenamingProtocols(b *testing.B) {
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("snapshot2n-1/n=%d", n), func(b *testing.B) {
			spec := gsb.Renaming(n, 2*n-1)
			for i := 0; i < b.N; i++ {
				_, err := tasks.RunVerified(spec, sched.DefaultIDs(n), sched.NewRandom(int64(i)),
					func(n int) tasks.Solver { return tasks.NewSnapshotRenaming("R", n) })
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("grid/n=%d", n), func(b *testing.B) {
			spec := gsb.Renaming(n, n*(n+1)/2)
			for i := 0; i < b.N; i++ {
				_, err := tasks.RunVerified(spec, sched.DefaultIDs(n), sched.NewRandom(int64(i)),
					func(n int) tasks.Solver { return tasks.NewGridRenaming("G", n) })
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotConstruction compares the native one-step snapshot
// with the Afek et al. wait-free construction from 1WnR registers
// (substrate ablation: what the "snapshots are free" assumption costs).
func BenchmarkSnapshotConstruction(b *testing.B) {
	const n, rounds = 4, 2
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			arr := mem.NewArray[int]("A", n)
			r := sched.NewRunner(n, sched.DefaultIDs(n), sched.NewRandom(int64(i)))
			_, err := r.Run(func(p *sched.Proc) {
				for k := 0; k < rounds; k++ {
					arr.Write(p, k)
					arr.Snapshot(p)
				}
				p.Decide(1)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("afek", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			snap := mem.NewSnapshotObject[int]("S", n)
			r := sched.NewRunner(n, sched.DefaultIDs(n), sched.NewRandom(int64(i)),
				sched.WithMaxSteps(1<<20))
			_, err := r.Run(func(p *sched.Proc) {
				for k := 0; k < rounds; k++ {
					snap.Update(p, k)
					snap.Scan(p)
				}
				p.Decide(1)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkImmediateSnapshot measures the Borowsky-Gafni levels protocol.
func BenchmarkImmediateSnapshot(b *testing.B) {
	for _, n := range []int{3, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				is := iis.New[int]("IS", n)
				r := sched.NewRunner(n, sched.DefaultIDs(n), sched.NewRandom(int64(i)),
					sched.WithMaxSteps(1<<20))
				_, err := r.Run(func(p *sched.Proc) {
					is.Invoke(p, p.ID())
					p.Decide(1)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUniversality runs the Theorem 8 construction: an arbitrary GSB
// task (here the hardest <n,m,-,-> member) from perfect renaming.
func BenchmarkUniversality(b *testing.B) {
	for _, tc := range []struct{ n, m int }{{6, 3}, {9, 4}} {
		spec := gsb.Hardest(tc.n, tc.m)
		b.Run(spec.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := tasks.RunVerified(spec, sched.DefaultIDs(tc.n), sched.NewRandom(int64(i)),
					func(n int) tasks.Solver {
						return universal.New(spec, tasks.NewTASRenaming("TAS", n))
					})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWSBRenamingEquivalence runs the round trip WSB -> (2n-2)-
// renaming -> WSB (Section 5.3 / Section 6 equivalence).
func BenchmarkWSBRenamingEquivalence(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		spec := gsb.WSB(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seed := int64(i)
				_, err := tasks.RunVerified(spec, sched.DefaultIDs(n), sched.NewRandom(seed),
					func(n int) tasks.Solver {
						ren := tasks.NewRenamingFromWSB("RW", n, mem.WSBBox("WSB", n, seed))
						return tasks.NewWSBFromRenaming(n, ren)
					})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNoCommSearch measures the Theorem 9 machinery: the closed-form
// characterization, the constructive solver, and the exhaustive
// subset verification.
func BenchmarkNoCommSearch(b *testing.B) {
	b.Run("characterize/n=8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for m := 1; m <= 15; m++ {
				for u := 1; u <= 8; u++ {
					nocomm.Solvable(gsb.NewSym(8, m, 0, u))
				}
			}
		}
	})
	b.Run("build+verify/n=8", func(b *testing.B) {
		spec := gsb.BoundedHomonymous(8, 3)
		for i := 0; i < b.N; i++ {
			delta, ok := nocomm.Build(spec)
			if !ok {
				b.Fatal("unexpectedly unsolvable")
			}
			if err := nocomm.Verify(spec, delta); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive-verify/n=6", func(b *testing.B) {
		spec := gsb.BoundedHomonymous(6, 3)
		delta, _ := nocomm.Build(spec)
		for i := 0; i < b.N; i++ {
			if err := nocomm.VerifyExhaustive(spec, delta); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGCDClassification tabulates the Theorem 10 condition.
func BenchmarkGCDClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := solvability.GCDTable(48)
		if len(rows) != 47 {
			b.Fatal("wrong table size")
		}
	}
}

// BenchmarkCertificate exhausts the decision-map search certifying
// Theorems 10 and 11 on the IIS protocol complex, built once per row
// outside the timer (the search only reads it). WSB at n=3, r=2 is the
// instance chronological backtracking cannot finish.
func BenchmarkCertificate(b *testing.B) {
	for _, tc := range []struct {
		name string
		spec gsb.Spec
		r    int
	}{
		{"election", gsb.Election(2), 2},
		{"election", gsb.Election(3), 1},
		{"election", gsb.Election(3), 2},
		{"election", gsb.Election(4), 1},
		{"wsb", gsb.WSB(3), 2},
		{"wsb", gsb.WSB(4), 1},
	} {
		b.Run(fmt.Sprintf("%s/n=%d/r=%d", tc.name, tc.spec.N(), tc.r), func(b *testing.B) {
			c := topology.BuildIIS(tc.spec.N(), tc.r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.FindDecisionMap(tc.spec) != nil {
					b.Fatalf("%v decision map found; contradicts Theorems 10-11", tc.spec)
				}
			}
		})
	}
}

// BenchmarkLubyMIS measures the message-passing MIS baseline. Op i runs
// seed i mod 16, so the work per op does not depend on b.N and runs at
// different -benchtime compare the same work.
func BenchmarkLubyMIS(b *testing.B) {
	const seeds = 16
	for _, n := range []int{32, 128} {
		rng := rand.New(rand.NewSource(1))
		g := msgnet.GNP(n, 0.1, rng.Float64)
		b.Run(fmt.Sprintf("gnp%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := luby.MIS(g, int64(i%seeds), 1<<20, nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := luby.VerifyMIS(g, res.InMIS); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColeVishkin measures deterministic ring 3-coloring, fault-free
// up to 2^20 vertices and, on 4,096 vertices, under the message adversary
// through the synchronizer.
func BenchmarkColeVishkin(b *testing.B) {
	for _, n := range []int{64, 1024, 1 << 20} {
		b.Run(fmt.Sprintf("ring%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := luby.RingThreeColor(n, 1000, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("adversarial/ring4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			adv := &msgnet.NetAdversary{Seed: 7, LossProb: 0.15, DelayProb: 0.1, ReorderProb: 0.1}
			if _, err := luby.RingThreeColor(4096, 20000, adv); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCanonicalization measures Theorem 7's fixed-point computation
// against the brute-force synonym classification it replaces.
func BenchmarkCanonicalization(b *testing.B) {
	b.Run("fixed-point/n=20", func(b *testing.B) {
		family := gsb.Family(20, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range family {
				s.Canonical()
			}
		}
	})
	b.Run("synonym-classes/n=20", func(b *testing.B) {
		family := gsb.Family(20, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gsb.SynonymClasses(family)
		}
	})
}
