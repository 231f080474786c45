package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The determinism analyzer polices the engine's load-bearing contract:
// schedule and class counts are a pure function of the protocol, the
// property and the options — never of worker interleaving, wall-clock
// time, or map iteration order (explore_parallel.go's determinism
// contract, docs/architecture.md). It applies to the packages that
// compute results (sched, sample, campaign, mem, msgnet, luby) and flags
// the constructs that historically smuggle nondeterminism, or avoidable
// per-run cost, into them:
//
//   - wall-clock reads (time.Now, time.Since, time.Until): results must
//     not depend on when the engine runs. Timing histograms and progress
//     timestamps are legitimate — annotate them.
//   - global math/rand draws (rand.Intn and friends): the process-global
//     source is shared and unseeded; all engine randomness must flow from
//     an explicit seed via runrand.New(seed), which is why the
//     constructors New and NewZipf are exempt.
//   - math/rand's own seeded source (rand.NewSource): its Seed computes
//     all 607 register words, 1,841 Lehmer steps, before the first draw,
//     and at one generator per sampled run that was over a quarter of a
//     walk campaign's CPU profile. runrand.New yields exactly the same
//     stream and computes each word on first read.
//   - `go` statements: goroutines outside the audited worker pools make
//     aggregation order a scheduling artifact. Worker-pool spawns carry
//     annotations pointing at the interleaving-independence argument.
//   - map-range loops whose body writes result-bearing outer state: map
//     iteration order is randomized per run, so appending to an outer
//     slice or overwriting an outer variable inside one yields a
//     different value each run. Commutative writes (set/map inserts,
//     which the analyzer skips) and ranges whose output is canonicalized
//     afterwards (annotate, citing the sort) are fine.
//
// Findings are waived with //gsb:nondeterminism-ok <reason>. The test of
// a legitimate waiver: the flagged value must never influence schedule or
// class counts, verdicts, or checkpoint identity.
var DeterminismAnalyzer = &Analyzer{
	Name:       "determinism",
	Doc:        "flags wall-clock reads, global rand, math/rand's eager seeding, bare goroutines, and order-dependent map iteration in the result-computing packages",
	Suppressor: "nondeterminism-ok",
	Run:        runDeterminism,
}

// determinismPackages are the result-computing packages the analyzer
// applies to, matched by import-path suffix.
var determinismPackages = []string{
	"internal/sched",
	"internal/sample",
	"internal/campaign",
	"internal/msgnet",
	"internal/luby",
	"internal/mem",
}

// globalRandExempt are the package-level math/rand functions that do not
// draw from the process-global source.
var globalRandExempt = map[string]bool{
	"New":     true,
	"NewZipf": true,
}

func determinismApplies(path string) bool {
	for _, suffix := range determinismPackages {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}

func runDeterminism(pass *Pass) error {
	if !determinismApplies(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "bare `go` statement: goroutines outside the audited worker pools make results interleaving-dependent")
			case *ast.CallExpr:
				checkDeterminismCall(pass, n)
			case *ast.RangeStmt:
				checkMapRangeWrites(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDeterminismCall flags wall-clock reads and global math/rand draws.
func checkDeterminismCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if ok && fn.Type().(*types.Signature).Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn, time.Time.Sub) are seeded/value-local
	}
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(), "wall-clock read time.%s: results must be a pure function of protocol, property and options", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		switch {
		case fn.Pkg().Path() == "math/rand" && fn.Name() == "NewSource":
			pass.Reportf(call.Pos(), "rand.NewSource seeds all 607 register words before the first draw: use runrand.New(seed), which yields the same stream")
		case !globalRandExempt[fn.Name()]:
			pass.Reportf(call.Pos(), "global rand.%s draws from the process-global source: derive a seeded generator via runrand.New(seed) instead", fn.Name())
		}
	}
}

// checkMapRangeWrites flags order-dependent writes inside a map-range
// body: plain assignments (including x = append(x, ...)) whose target is
// declared outside the range statement. Map/slice-element writes and
// compound assignments are deliberately not flagged — set inserts and
// additive accumulation commute across iteration orders.
func checkMapRangeWrites(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || assign.Tok != token.ASSIGN {
			return true
		}
		for _, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				continue
			}
			if obj.Pos() < rng.Pos() || obj.Pos() > rng.End() {
				pass.Reportf(assign.Pos(), "map-range body writes %s, declared outside the loop: map iteration order is randomized, so the result is order-dependent", id.Name)
			}
		}
		return true
	})
}
