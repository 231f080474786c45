package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// The golden tests load each testdata/src fixture with LoadDir under a
// chosen import path (so the path-scoped analyzers apply to fixtures the
// same way they apply to the real tree), run one analyzer, and match the
// surviving diagnostics against `want` comments in the fixture:
//
//	expr // want `regex`
//	expr /* want `regex` */ //gsb:...
//
// Every diagnostic must match a want on its line, and every want must be
// matched — the analysistest contract, on the stdlib only.

var goldenCases = []struct {
	dir      string
	path     string // import path the fixture is loaded under
	analyzer *Analyzer
}{
	{"determinism", "repro/internal/sched", DeterminismAnalyzer},
	{"hotpath", "repro/internal/hotfixture", HotPathAnalyzer},
	{"statshandle", "repro/internal/statsfixture", StatsHandleAnalyzer},
	{"annotations", "repro/internal/annofixture", AnnotationsAnalyzer},
}

func TestAnalyzersGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.dir, func(t *testing.T) {
			fset := token.NewFileSet()
			dir := filepath.Join("testdata", "src", tc.dir)
			pkg, err := LoadDir(fset, dir, tc.path, nil)
			if err != nil {
				t.Fatalf("loading %s: %v", dir, err)
			}
			diags, err := Run(pkg, []*Analyzer{tc.analyzer})
			if err != nil {
				t.Fatalf("running %s: %v", tc.analyzer.Name, err)
			}

			wants := collectWants(t, pkg)
			for _, d := range diags {
				if !claimWant(wants, d) {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.claimed {
					t.Errorf("%s:%d: want %q matched no diagnostic", w.file, w.line, w.pattern)
				}
			}
		})
	}
}

type want struct {
	file    string
	line    int
	pattern string
	re      *regexp.Regexp
	claimed bool
}

var wantRe = regexp.MustCompile("want `([^`]+)`" + `|want "([^"]+)"`)

func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pattern := m[1]
				if pattern == "" {
					pattern = m[2]
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", pattern, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &want{file: pos.Filename, line: pos.Line, pattern: pattern, re: re})
			}
		}
	}
	return wants
}

func claimWant(wants []*want, d Diagnostic) bool {
	for _, w := range wants {
		if !w.claimed && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.claimed = true
			return true
		}
	}
	return false
}

// TestTreeClean is the in-process version of the CI gate: the real tree
// must produce zero findings. A failure prints each finding, which is the
// fix-or-annotate worklist.
func TestTreeClean(t *testing.T) {
	pkgs, err := LoadPatterns(repoRoot(t), "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, pkg := range pkgs {
		diags, err := Run(pkg, Analyzers())
		if err != nil {
			t.Fatalf("running analyzers on %s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

// TestSuppressorVerbsRegistered pins the annotations analyzer's verb
// table to the Suppressor fields of the registered analyzers (the table
// is duplicated to break an initialization cycle).
func TestSuppressorVerbsRegistered(t *testing.T) {
	fromAnalyzers := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Suppressor != "" {
			fromAnalyzers[a.Suppressor] = true
		}
	}
	for v := range fromAnalyzers {
		if !suppressorVerbs[v] {
			t.Errorf("analyzer suppressor %q missing from suppressorVerbs", v)
		}
	}
	for v := range suppressorVerbs {
		if !fromAnalyzers[v] {
			t.Errorf("suppressorVerbs lists %q, which no analyzer declares", v)
		}
	}
}

// TestAnalyzerMetadata keeps the suite presentable: names, docs, and
// distinct suppressor verbs.
func TestAnalyzerMetadata(t *testing.T) {
	seenName := map[string]bool{}
	seenVerb := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if seenName[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seenName[a.Name] = true
		if a.Suppressor != "" {
			if seenVerb[a.Suppressor] {
				t.Errorf("duplicate suppressor verb %q", a.Suppressor)
			}
			seenVerb[a.Suppressor] = true
			if markerVerbs[a.Suppressor] {
				t.Errorf("suppressor %q collides with a marker verb", a.Suppressor)
			}
		}
	}
}

// TestSuppressionScope pins the two legal annotation placements — end of
// the offending line, and the line immediately above — and that two lines
// above does not suppress.
func TestSuppressionScope(t *testing.T) {
	src := `package p

import "time"

func sameLine() time.Time {
	return time.Now() //gsb:nondeterminism-ok same line
}

func lineAbove() time.Time {
	//gsb:nondeterminism-ok line above
	return time.Now()
}

func tooFar() time.Time {
	//gsb:nondeterminism-ok two lines above: out of scope

	return time.Now()
}
`
	pkg := parseFixture(t, src, "repro/internal/sched")
	diags, err := Run(pkg, []*Analyzer{DeterminismAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want exactly the out-of-scope one", len(diags), diags)
	}
	if diags[0].Pos.Line != 17 {
		t.Errorf("surviving diagnostic at line %d, want 17 (the annotation two lines up must not reach it)", diags[0].Pos.Line)
	}
}

// parseFixture type-checks one in-memory file under the given import path.
func parseFixture(t *testing.T, src, path string) *Package {
	t.Helper()
	dir := t.TempDir()
	file := filepath.Join(dir, "fixture.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkg, err := LoadDir(fset, dir, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}
