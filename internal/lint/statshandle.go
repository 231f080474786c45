package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The statshandle analyzer enforces the metrics convention set by the
// observability work (internal/stats, internal/sched/metrics.go): a
// stats.Registry lookup — Counter(name), Gauge(name), Histogram(name) —
// takes a mutex and hashes the name, so handles are resolved once at
// construction (newEngineMetrics, campaign run() preamble) and the
// resolved handles are what hot code touches; a handle resolved from a
// nil registry is nil, and publishing through it does nothing. A lookup
// inside a loop or a hot-path function silently reintroduces a
// lock-and-hash per iteration, which is both a throughput cliff and a
// contention point across workers.
//
// The analyzer flags Counter/Gauge/Histogram method calls on a receiver
// whose named type is Registry (any package's) when the call site is
// lexically inside a for/range statement or inside a //gsb:hotpath
// function. The stats package itself is exempt: Registry internals
// (Restore, Snapshot) legitimately loop over their own lookups under the
// one lock they already hold. Waive a deliberate lookup-in-loop (e.g. a
// cold path iterating a dynamic metric set) with //gsb:statslookup-ok
// <reason>.
var StatsHandleAnalyzer = &Analyzer{
	Name:       "statshandle",
	Doc:        "stats registry lookups are forbidden inside loops and hotpath functions — resolve handles once",
	Suppressor: "statslookup-ok",
	Run:        runStatsHandle,
}

var registryLookupMethods = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
}

func runStatsHandle(pass *Pass) error {
	if pass.Path == "internal/stats" || strings.HasSuffix(pass.Path, "/internal/stats") {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			hot := pass.FuncMarked(fn, HotPathMarker)
			checkStatsLookups(pass, fn, hot)
		}
	}
	return nil
}

// checkStatsLookups walks fn's body tracking loop depth; registry lookups
// are flagged inside any loop, or anywhere when the function is hot.
func checkStatsLookups(pass *Pass, fn *ast.FuncDecl, hot bool) {
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(child ast.Node) bool {
			switch child := child.(type) {
			case *ast.ForStmt:
				if child.Init != nil {
					walk(child.Init, inLoop)
				}
				if child.Cond != nil {
					walk(child.Cond, inLoop)
				}
				if child.Post != nil {
					walk(child.Post, inLoop)
				}
				walk(child.Body, true)
				return false
			case *ast.RangeStmt:
				walk(child.X, inLoop)
				walk(child.Body, true)
				return false
			case *ast.CallExpr:
				if name, ok := registryLookup(pass, child); ok {
					switch {
					case inLoop:
						pass.Reportf(child.Pos(), "stats registry lookup %s inside a loop: each call locks and hashes — resolve the handle once before the loop", name)
					case hot:
						pass.Reportf(child.Pos(), "stats registry lookup %s in hotpath func %s: resolve the handle at construction and use it here", name, fn.Name.Name)
					}
				}
			}
			return true
		})
	}
	walk(fn.Body, false)
}

// registryLookup reports whether call is Counter/Gauge/Histogram on a
// value whose named type is Registry.
func registryLookup(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !registryLookupMethods[sel.Sel.Name] {
		return "", false
	}
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", false
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Registry" {
		return "", false
	}
	return "Registry." + sel.Sel.Name, true
}
