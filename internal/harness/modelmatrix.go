package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/gsb"
	"repro/internal/sched"
	"repro/internal/solvability"
	"repro/internal/tasks"
	"repro/internal/universal"
)

// This file is the model-matrix experiment: the execution model — the
// memory-model and adversary registries of internal/sched — treated as an
// experimental axis. It has two parts:
//
//   - The model axis, measured on the two register-based renaming
//     protocols (the Attiya et al. snapshot protocol and the
//     Moir-Anderson splitter grid). Each is POR-explored exhaustively at
//     n=2 under every registered memory model — the weak models decompose
//     writes into scheduler-visible step pairs and snapshots into
//     collects, so the trace-class counts change per model, with the
//     atomic row bit-identical to the pre-registry engine — and
//     PCT-sampled at n=3, where the safe model genuinely breaks the
//     splitter grid (a read overlapping the torn 'door' write returns the
//     unwritten zero, letting two processes stop on the same splitter and
//     decide the same name). Splitters require atomic registers; the
//     experiment finds the violation deterministically from a fixed seed.
//
//   - The adversary axis, measured on the GSB families: every feasible
//     member of the <4,2> and <5,3> families, solved by the Theorem 8
//     universal construction (perfect renaming from test-and-set), is
//     crash-swept under every registered adversary × memory model. The
//     universal construction communicates only through oracle objects, so
//     its verdicts are model-independent — the contrast with the
//     register-based protocols above is the point: weakening the
//     registers breaks register-based renaming while the oracle-based
//     construction survives every model under every crash adversary.

// ModelExploreRow is one (protocol, memory model) measurement: exact
// POR trace-class count at n=2, and the PCT verdict at n=3.
type ModelExploreRow struct {
	Protocol string
	Model    string
	Classes  int    // exhaustive POR classes at n=2
	Verdict  string // n=3 PCT-sampled verdict: "ok" or the violation
}

// ModelDiffCell is one (model, adversary) crash sweep of one spec.
type ModelDiffCell struct {
	Model     string
	Adversary string
	Runs      int
	Verdict   string // "ok" or the violation
}

// ModelDiffRow is one family member's sweep across the full matrix.
type ModelDiffRow struct {
	Spec     string
	Solvable string // the theoretical classification (internal/solvability)
	Cells    []ModelDiffCell
}

// ModelMatrixResult is the full experiment.
type ModelMatrixResult struct {
	SampleRuns  int // PCT budget behind each n=3 verdict
	Explore     []ModelExploreRow
	Models      []string
	Adversaries []string
	Diff        []ModelDiffRow
}

// ModelMatrixExperiment runs the experiment: the model axis on the
// register-based renaming protocols (exact POR counts at n=2, PCT
// verdicts at n=3 with sampleRuns runs per cell), and the model ×
// adversary matrix on the <4,2> and <5,3> families with crashRuns seeded
// runs per cell. workers <= 0 means GOMAXPROCS. models and adversaries
// restrict the matrix to the named registry entries (nil = all
// registered); unknown names error.
func ModelMatrixExperiment(workers, sampleRuns, crashRuns int, models, adversaries []string) (*ModelMatrixResult, error) {
	if sampleRuns <= 0 {
		sampleRuns = 20000
	}
	if crashRuns <= 0 {
		crashRuns = 100
	}
	if len(models) == 0 {
		models = sched.MemModels()
	}
	if len(adversaries) == 0 {
		adversaries = sched.Adversaries()
	}
	for _, m := range models {
		if _, err := sched.MemModelByName(m); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
	}
	for _, a := range adversaries {
		if _, err := sched.AdversaryByName(a); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
	}
	res := &ModelMatrixResult{
		SampleRuns:  sampleRuns,
		Models:      models,
		Adversaries: adversaries,
	}

	// Part 1: the model axis on the register-based protocols, explored at
	// n=2 and sampled at n=3.
	for _, proto := range []struct{ name, registered string }{
		{"snapshot-renaming", "renaming"},
		{"grid-renaming", "grid"},
	} {
		spec2, build2, err := campaign.SelectProtocol(proto.registered, 2, 1)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		spec3, build3, err := campaign.SelectProtocol(proto.registered, 3, 1)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		for _, model := range res.Models {
			opts := sched.ExploreOptions{
				Workers:   workers,
				Reduction: sched.ReductionSleepSets,
				Model:     model,
			}
			classes, err := tasks.ExploreVerified(context.Background(), spec2, sched.DefaultIDs(2), opts, build2)
			if err != nil {
				return nil, fmt.Errorf("harness: model matrix explore %s model=%s: %w", proto.name, model, err)
			}
			sopts := sched.ExploreOptions{
				Workers:    workers,
				Seed:       1,
				SampleRuns: sampleRuns,
				SampleMode: sched.SamplePCT,
				Depth:      3,
				Model:      model,
			}
			_, serr := tasks.SampleVerified(context.Background(), spec3, sched.DefaultIDs(3), sopts, build3)
			if serr != nil && !isViolation(serr) {
				return nil, fmt.Errorf("harness: model matrix sample %s model=%s: %w", proto.name, model, serr)
			}
			res.Explore = append(res.Explore, ModelExploreRow{
				Protocol: proto.name, Model: model, Classes: classes, Verdict: verdictOf(serr),
			})
		}
	}

	// Part 2: the adversary axis on the GSB families, under each model.
	for _, fam := range [][2]int{{4, 2}, {5, 3}} {
		n, m := fam[0], fam[1]
		for _, s := range gsb.Family(n, m) {
			row := ModelDiffRow{Spec: s.String(), Solvable: solvability.Classify(s).Status.String()}
			solver := func(n int) tasks.Solver {
				return universal.New(s, tasks.NewTASRenaming("TAS", n))
			}
			for _, model := range res.Models {
				for _, adv := range res.Adversaries {
					opts := sched.ExploreOptions{
						Workers:   workers,
						Seed:      1,
						CrashRuns: crashRuns,
						CrashProb: 0.1,
						Model:     model,
						Adversary: adv,
					}
					_, err := tasks.ExploreVerified(context.Background(), s, sched.DefaultIDs(n), opts, solver)
					if err != nil && !isViolation(err) {
						return nil, fmt.Errorf("harness: model matrix sweep spec=%v model=%s adversary=%s: %w", s, model, adv, err)
					}
					row.Cells = append(row.Cells, ModelDiffCell{
						Model: model, Adversary: adv, Runs: crashRuns, Verdict: verdictOf(err),
					})
				}
			}
			res.Diff = append(res.Diff, row)
		}
	}
	return res, nil
}

// isViolation distinguishes a property violation (an experimental
// result: the model/adversary broke the protocol) from an engine error
// (budget exhaustion, invalid options), which aborts the experiment.
func isViolation(err error) bool {
	return err != nil && strings.Contains(err.Error(), "violates")
}

func verdictOf(err error) string {
	if err == nil {
		return "ok"
	}
	v := err.Error()
	if i := strings.IndexByte(v, '\n'); i >= 0 {
		v = v[:i]
	}
	const max = 80
	if len(v) > max {
		v = v[:max] + "..."
	}
	return "VIOLATION: " + v
}

// ModelMatrixText renders the experiment.
func ModelMatrixText(r *ModelMatrixResult) string {
	var b strings.Builder
	b.WriteString("Model matrix: execution model as an experimental axis\n")
	fmt.Fprintf(&b, "\nMemory-model axis: register-based renaming (POR classes at n=2; %d-run PCT verdict at n=3)\n", r.SampleRuns)
	b.WriteString("  protocol           model           classes  n=3 verdict\n")
	for _, row := range r.Explore {
		fmt.Fprintf(&b, "  %-17s  %-14s  %7d  %s\n", row.Protocol, row.Model, row.Classes, row.Verdict)
	}
	b.WriteString("\nAdversary axis: <4,2> and <5,3> families via the universal construction (crash sweeps)\n")
	fmt.Fprintf(&b, "  %-16s  %-26s  %-14s", "spec", "solvable (theory)", "model")
	for _, adv := range r.Adversaries {
		fmt.Fprintf(&b, "  %-13s", adv)
	}
	b.WriteString("\n")
	for _, row := range r.Diff {
		for mi, model := range r.Models {
			label, solv := "", ""
			if mi == 0 {
				label, solv = row.Spec, row.Solvable
			}
			fmt.Fprintf(&b, "  %-16s  %-26s  %-14s", label, solv, model)
			for _, c := range row.Cells {
				if c.Model != model {
					continue
				}
				v := c.Verdict
				if len(v) > 13 {
					v = v[:13]
				}
				fmt.Fprintf(&b, "  %-13s", v)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
