package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The hotpath analyzer defends the 0 allocs/run invariant established by
// the direct-handoff runner work (gsbbench's committed baseline, enforced
// in CI by `gsbbench -compare`): the per-run exploration path must not
// allocate, because a single stray allocation costs ~30% throughput on
// million-run campaigns and turns the GC into a source of timing noise in
// the sampler. The benchmark gate catches a regression after the fact and
// as an aggregate number; this analyzer names the exact expression, at
// review time, without running anything.
//
// Functions on the hot path are marked //gsb:hotpath in their doc
// comment. Inside a marked function the analyzer flags the expressions
// that usually allocate:
//
//   - append(...) — growth allocates; appends into pre-grown reusable
//     scratch (r.result.Schedule, r.pendingIdx) are the idiom and carry
//     //gsb:alloc-ok annotations citing the reuse;
//   - make(...) and new(...);
//   - slice and map composite literals ([]T{...}, map[K]V{...}), which
//     allocate their backing store, and pointer literals &T{...}, which
//     escape; plain struct values (Decision{...}, stepReq{...}) stay on
//     the stack and are deliberately not flagged;
//   - function literals (closures capture by reference and escape);
//   - conversions of a concrete value to an interface type (boxing).
//
// The analyzer is syntactic by design: it does not run escape analysis,
// so stack-proven allocations still need an //gsb:alloc-ok with the
// argument (the benchmark gate keeps the annotation honest). Marking is
// manual; a function reachable from a marked one is not automatically
// checked, so mark the whole call chain (Exec → schedule → pull).
var HotPathAnalyzer = &Analyzer{
	Name:       "hotpath",
	Doc:        "flags allocating expressions inside //gsb:hotpath-marked functions",
	Suppressor: "alloc-ok",
	Run:        runHotPath,
}

// HotPathMarker marks a function as part of the zero-allocation run path.
const HotPathMarker = "hotpath"

func runHotPath(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !pass.FuncMarked(fn, HotPathMarker) {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&T{} literal in hotpath func %s escapes to the heap", name)
					return false
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pass.Info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(n.Pos(), "%s literal in hotpath func %s allocates its backing store", describeLitKind(tv.Type), name)
					return false // element literals are covered by the outer report
				}
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal in hotpath func %s: closures escape and allocate", name)
			return false
		case *ast.CallExpr:
			checkHotCall(pass, n, name)
		}
		return true
	})
}

func describeLitKind(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}

func checkHotCall(pass *Pass, call *ast.CallExpr, fname string) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj, ok := pass.Info.Uses[fun].(*types.Builtin); ok {
			switch obj.Name() {
			case "append":
				pass.Reportf(call.Pos(), "append in hotpath func %s: growth allocates — append only into pre-grown reusable scratch and annotate the reuse", fname)
			case "make", "new":
				pass.Reportf(call.Pos(), "%s in hotpath func %s allocates", obj.Name(), fname)
			}
			return
		}
	}
	// A call expression whose Fun is a type is a conversion; converting a
	// concrete value to an interface boxes it on the heap.
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	if !types.IsInterface(tv.Type) {
		return
	}
	if argTV, ok := pass.Info.Types[call.Args[0]]; ok && !types.IsInterface(argTV.Type) {
		pass.Reportf(call.Pos(), "conversion to interface type %s in hotpath func %s boxes its operand", types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), fname)
	}
}
