// Package lint is gsbvet: a project-specific static-analysis suite that
// mechanically enforces the engine's prose contracts — worker-count
// determinism, the zero-allocation hot path and handle-based stats
// publishing (docs/static-analysis.md). The checkpoint-format contracts
// are checked on the real types by tests instead (RoundTripJSON).
//
// The suite is built directly on the standard library's go/ast and
// go/types (no golang.org/x/tools dependency: the analyzers must build
// from the tree with no network fetch, in CI and offline alike). The API
// deliberately mirrors golang.org/x/tools/go/analysis — Analyzer, Pass,
// Diagnostic, Reportf — so the analyzers could be ported to a multichecker
// driver verbatim if the dependency ever lands.
//
// Findings are suppressed, never silenced: each analyzer names an
// annotation verb (for example //gsb:nondeterminism-ok <reason>) that
// waives a finding on its line — with a mandatory reason, enforced by the
// annotations analyzer. The annotation grammar is
//
//	//gsb:<verb>            marker (hotpath)
//	//gsb:<verb> <reason>   suppression (nondeterminism-ok, alloc-ok,
//	                        statslookup-ok)
//
// placed either at the end of the offending line or on the line
// immediately above it (markers go in the doc comment of the func they
// mark).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one gsbvet check: a named invariant, the
// annotation verb that waives its findings, and the function that walks a
// package and reports violations.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and documentation.
	Name string
	// Doc is the one-line description printed by gsbvet -list.
	Doc string
	// Suppressor is the //gsb: annotation verb that suppresses this
	// analyzer's diagnostics ("" means findings cannot be waived).
	Suppressor string
	// Run reports the package's violations through pass.Reportf.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding: a position, the analyzer that produced it,
// and the message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// Path is the package's import path; several analyzers scope
	// themselves by path suffix (e.g. determinism applies to
	// internal/sched but not internal/stats).
	Path string
	Pkg  *types.Package
	Info *types.Info

	notes  *annotationIndex
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// An Annotation is one parsed //gsb: comment.
type Annotation struct {
	Verb   string
	Reason string
	Pos    token.Pos
}

// annotationIndex maps filename and line to the //gsb: annotations that
// govern that line.
type annotationIndex struct {
	byLine map[string]map[int][]Annotation
	all    []Annotation
}

// AnnotationPrefix introduces a gsbvet annotation comment.
const AnnotationPrefix = "//gsb:"

// parseAnnotation parses one comment; ok is false for ordinary comments.
func parseAnnotation(c *ast.Comment) (Annotation, bool) {
	text, found := strings.CutPrefix(c.Text, AnnotationPrefix)
	if !found {
		return Annotation{}, false
	}
	verb, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
	return Annotation{Verb: verb, Reason: strings.TrimSpace(reason), Pos: c.Pos()}, true
}

// indexAnnotations collects every //gsb: comment of the files.
func indexAnnotations(fset *token.FileSet, files []*ast.File) *annotationIndex {
	idx := &annotationIndex{byLine: map[string]map[int][]Annotation{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				a, ok := parseAnnotation(c)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]Annotation{}
					idx.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], a)
				idx.all = append(idx.all, a)
			}
		}
	}
	return idx
}

// suppressed reports whether a diagnostic at pos is waived by an
// annotation with the given verb on its own line or the line above.
func (idx *annotationIndex) suppressed(pos token.Position, verb string) bool {
	lines := idx.byLine[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, a := range lines[line] {
			if a.Verb == verb {
				return true
			}
		}
	}
	return false
}

// Annotations returns every //gsb: annotation of the package, in file
// order (the annotations analyzer validates them).
func (p *Pass) Annotations() []Annotation { return p.notes.all }

// FuncMarked reports whether fn's doc comment carries //gsb:<verb>.
func (p *Pass) FuncMarked(fn *ast.FuncDecl, verb string) bool {
	return groupMarked(fn.Doc, verb)
}

func groupMarked(doc *ast.CommentGroup, verb string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if a, ok := parseAnnotation(c); ok && a.Verb == verb {
			return true
		}
	}
	return false
}

// Run executes the analyzers over one loaded package and returns the
// surviving (unsuppressed) diagnostics in position order.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	notes := indexAnnotations(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Path:     pkg.Path,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			notes:    notes,
			report: func(d Diagnostic) {
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		verb := suppressorOf(analyzers, d.Analyzer)
		if verb != "" && notes.suppressed(d.Pos, verb) {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}

func suppressorOf(analyzers []*Analyzer, name string) string {
	for _, a := range analyzers {
		if a.Name == name {
			return a.Suppressor
		}
	}
	return ""
}

// Analyzers is the full gsbvet suite, in documentation order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		HotPathAnalyzer,
		StatsHandleAnalyzer,
		AnnotationsAnalyzer,
	}
}
