package sched

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/stats"
)

// The execution-model registries (memmodel.go, adversary.go) are part of
// campaign identity and CLI surface, so their names, order and error
// messages are contractual: these tests pin them.

func TestMemModelRegistry(t *testing.T) {
	want := []string{ModelAtomic, ModelRegular, ModelSafe, ModelStaleSnapshot}
	got := MemModels()
	if len(got) != len(want) {
		t.Fatalf("MemModels() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MemModels() = %v, want %v (order is contractual: default first)", got, want)
		}
	}
	for _, name := range want {
		m, err := MemModelByName(name)
		if err != nil {
			t.Fatalf("MemModelByName(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("MemModelByName(%q).Name() = %q", name, m.Name())
		}
	}
	// The empty name is the default, and the zero value is atomic.
	def, err := MemModelByName("")
	if err != nil {
		t.Fatalf("MemModelByName(\"\"): %v", err)
	}
	if def != (MemModel{}) || def.Name() != ModelAtomic {
		t.Errorf("default model = %+v (%q), want the zero (atomic) model", def, def.Name())
	}
	// Capabilities per model.
	caps := func(name string) [3]bool {
		m, _ := MemModelByName(name)
		return [3]bool{m.TwoPhaseWrites(), m.SafeReads(), m.StaleSnapshots()}
	}
	if caps(ModelAtomic) != [3]bool{false, false, false} {
		t.Errorf("atomic capabilities = %v, want none", caps(ModelAtomic))
	}
	if caps(ModelRegular) != [3]bool{true, false, false} {
		t.Errorf("regular capabilities = %v, want two-phase writes only", caps(ModelRegular))
	}
	if caps(ModelSafe) != [3]bool{true, true, false} {
		t.Errorf("safe capabilities = %v, want two-phase writes + safe reads", caps(ModelSafe))
	}
	if caps(ModelStaleSnapshot) != [3]bool{false, false, true} {
		t.Errorf("stale-snapshot capabilities = %v, want stale snapshots only", caps(ModelStaleSnapshot))
	}
	// Unknown names list the registry.
	_, err = MemModelByName("bogus")
	if err == nil || !strings.Contains(err.Error(), "atomic, regular, safe, stale-snapshot") {
		t.Errorf("MemModelByName(bogus) = %v, want the registered list", err)
	}
}

func TestAdversaryRegistry(t *testing.T) {
	want := []string{AdversaryUniformCrash, AdversaryTResilient, AdversaryAdaptive}
	got := Adversaries()
	if len(got) != len(want) {
		t.Fatalf("Adversaries() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Adversaries() = %v, want %v (order is contractual: default first)", got, want)
		}
	}
	for _, name := range want {
		a, err := AdversaryByName(name)
		if err != nil {
			t.Fatalf("AdversaryByName(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("AdversaryByName(%q).Name() = %q", name, a.Name())
		}
	}
	if def, err := AdversaryByName(""); err != nil || def.Name() != AdversaryUniformCrash {
		t.Errorf("default adversary = (%q, %v), want uniform-crash", def.Name(), err)
	}
	_, err := AdversaryByName("bogus")
	if err == nil || !strings.Contains(err.Error(), "uniform-crash, t-resilient, adaptive") {
		t.Errorf("AdversaryByName(bogus) = %v, want the registered list", err)
	}
}

func TestValidateRejectsUnknownExecModel(t *testing.T) {
	err := ExploreOptions{Model: "bogus"}.Validate()
	if !errors.Is(err, ErrInvalidOptions) || !strings.Contains(err.Error(), `unknown memory model "bogus"`) {
		t.Errorf("Model=bogus: %v, want ErrInvalidOptions naming the model", err)
	}
	err = ExploreOptions{Adversary: "bogus"}.Validate()
	if !errors.Is(err, ErrInvalidOptions) || !strings.Contains(err.Error(), `unknown adversary "bogus"`) {
		t.Errorf("Adversary=bogus: %v, want ErrInvalidOptions naming the adversary", err)
	}
	if err := (ExploreOptions{Model: ModelSafe, Adversary: AdversaryAdaptive}).Validate(); err != nil {
		t.Errorf("registered names rejected: %v", err)
	}
}

// TestExplicitDefaultNamesIdentical is the engine half of the
// default-preservation differential: naming the defaults explicitly
// ("atomic", "uniform-crash") must reproduce the zero-valued options'
// counts and lex-min violations exactly, at workers 1, 2 and 8, in every
// exploration mode — the registry refactor must be invisible at the
// defaults.
func TestExplicitDefaultNamesIdentical(t *testing.T) {
	const n = 3
	check := distinctOutputs // raceBody violates on some schedules
	for _, red := range []Reduction{ReductionNone, ReductionSleepSets, ReductionSleepMemo} {
		for _, workers := range []int{1, 2, 8} {
			base := ExploreOptions{Workers: workers, MaxSteps: 1000, Reduction: red}
			named := base
			named.Model, named.Adversary = ModelAtomic, AdversaryUniformCrash
			wantCount, wantErr := Explore(context.Background(), n, DefaultIDs(n), base, raceBody(n), check)
			gotCount, gotErr := Explore(context.Background(), n, DefaultIDs(n), named, raceBody(n), check)
			if gotCount != wantCount || errText(gotErr) != errText(wantErr) {
				t.Errorf("reduction=%v workers=%d: named defaults (%d, %q), zero defaults (%d, %q)",
					red, workers, gotCount, errText(gotErr), wantCount, errText(wantErr))
			}
		}
	}
	for _, workers := range []int{1, 2, 8} {
		base := ExploreOptions{Workers: workers, Seed: 5, CrashRuns: 400, CrashProb: 0.1, MaxSteps: 1000}
		named := base
		named.Model, named.Adversary = ModelAtomic, AdversaryUniformCrash
		wantCount, wantErr := Explore(context.Background(), n, DefaultIDs(n), base, raceBody(n), check)
		gotCount, gotErr := Explore(context.Background(), n, DefaultIDs(n), named, raceBody(n), check)
		if gotCount != wantCount || errText(gotErr) != errText(wantErr) {
			t.Errorf("crash sweep workers=%d: named defaults (%d, %q), zero defaults (%d, %q)",
				workers, gotCount, errText(gotErr), wantCount, errText(wantErr))
		}
	}
}

// TestAdversarySweepsDeterministicAcrossWorkers: each registered
// adversary yields a worker-count-independent sweep verdict — counts and
// the first failing run are pure functions of (adversary, seed), which is
// what makes adversary sweeps checkpoint- and shard-safe.
func TestAdversarySweepsDeterministicAcrossWorkers(t *testing.T) {
	const n = 3
	for _, adv := range Adversaries() {
		var wantCount int
		var wantErr string
		for i, workers := range []int{1, 2, 8} {
			opts := ExploreOptions{Workers: workers, Seed: 7, CrashRuns: 300, CrashProb: 0.15, MaxSteps: 1000, Adversary: adv}
			count, err := Explore(context.Background(), n, DefaultIDs(n), opts, raceBody(n), distinctOutputs)
			if i == 0 {
				wantCount, wantErr = count, errText(err)
				continue
			}
			if count != wantCount || errText(err) != wantErr {
				t.Errorf("adversary=%s workers=%d: (%d, %q), want (%d, %q) as at workers=1",
					adv, workers, count, errText(err), wantCount, wantErr)
			}
		}
	}
}

// TestTResilientCrashSemantics: the t-resilient adversary crashes only
// processes in its pre-drawn victim set, never more than maxCrashes of
// them, and is deterministic per seed.
func TestTResilientCrashSemantics(t *testing.T) {
	const n, maxCrashes = 4, 2
	pending := []int{0, 1, 2, 3}
	crashed := map[int]bool{}
	a := NewTResilientCrash(42, 1, maxCrashes, n) // crashProb 1: victims crash on first pick
	b := NewTResilientCrash(42, 1, maxCrashes, n)
	for i := 0; i < 200; i++ {
		d := a.Next(pending, i)
		if d2 := b.Next(pending, i); d != d2 {
			t.Fatalf("step %d: same seed diverged: %+v vs %+v", i, d, d2)
		}
		if d.Crash {
			crashed[d.Proc] = true
		}
	}
	if len(crashed) == 0 {
		t.Fatal("crashProb 1 never crashed a victim")
	}
	if len(crashed) > maxCrashes {
		t.Errorf("crashed %d distinct processes, victim budget is %d", len(crashed), maxCrashes)
	}
}

// TestAdaptiveCrashTargetsFrontRunner: every crash decision of the
// adaptive adversary fells the pending process with the most granted
// steps (ties to the smallest index).
func TestAdaptiveCrashTargetsFrontRunner(t *testing.T) {
	const n = 3
	pending := []int{0, 1, 2}
	granted := make([]int, n)
	a := NewAdaptiveCrash(9, 0.3, n-1, n)
	crashes := 0
	for i := 0; i < 400 && len(pending) > 1; i++ {
		d := a.Next(pending, i)
		if d.Crash {
			crashes++
			best := pending[0]
			for _, p := range pending[1:] {
				if granted[p] > granted[best] {
					best = p
				}
			}
			if d.Proc != best {
				t.Fatalf("step %d: crashed %d (granted %v), front-runner is %d", i, d.Proc, granted, best)
			}
			keep := pending[:0]
			for _, p := range pending {
				if p != d.Proc {
					keep = append(keep, p)
				}
			}
			pending = keep
			continue
		}
		granted[d.Proc]++
	}
	if crashes == 0 {
		t.Fatal("adaptive adversary never crashed anyone at crashProb 0.3 over 400 decisions")
	}
}

// TestAdversaryEventsMetric: sweeps publish the injected-crash count as
// MetricAdversaryEvents, identically at every worker count (the events of
// an erroring run are not counted, so the total is deterministic).
func TestAdversaryEventsMetric(t *testing.T) {
	const n = 3
	for _, adv := range Adversaries() {
		var want int64 = -1
		for _, workers := range []int{1, 2, 8} {
			reg := stats.New()
			opts := ExploreOptions{Workers: workers, Seed: 11, CrashRuns: 300, CrashProb: 0.2, MaxSteps: 1000, Adversary: adv, Stats: reg}
			if _, err := Explore(context.Background(), n, DefaultIDs(n), opts, stepsBodyBuild(2), func(*Result) error { return nil }); err != nil {
				t.Fatalf("adversary=%s workers=%d: %v", adv, workers, err)
			}
			events := reg.Snapshot().Counter(MetricAdversaryEvents)
			if events == 0 {
				t.Fatalf("adversary=%s: no adversary events at crashProb 0.2 over 300 runs", adv)
			}
			if want == -1 {
				want = events
			} else if events != want {
				t.Errorf("adversary=%s workers=%d: %d events, want %d as at workers=1", adv, workers, events, want)
			}
		}
	}
}

// stepsBodyBuild adapts stepsBody to the build-function shape.
func stepsBodyBuild(k int) func() Body {
	return func() Body { return stepsBody(k) }
}
