package lint

// The annotations analyzer keeps the //gsb: grammar itself honest. The
// suppression system only works if annotations stay meaningful: a typoed
// verb (//gsb:nondeterminism_ok) would silently suppress nothing while
// the author believes the finding is waived — or worse, the finding
// appears and the author "fixes" it by typo-matching the verb the
// diagnostic names. And a bare //gsb:alloc-ok with no reason defeats the
// point of suppression-with-rationale: six months later nobody can tell a
// considered waiver from a drive-by silencing.
//
// Two rules:
//
//   - every //gsb: verb must be the known marker (hotpath) or a known
//     suppression verb (the Suppressor of some registered analyzer);
//   - every suppression verb must carry a non-empty reason.
//
// There is deliberately no way to suppress this analyzer.
var AnnotationsAnalyzer = &Analyzer{
	Name: "annotations",
	Doc:  "//gsb: verbs must be known, and suppression verbs must carry a reason",
	Run:  runAnnotations,
}

// markerVerbs are the non-suppression annotation verbs.
var markerVerbs = map[string]bool{
	HotPathMarker: true,
}

// suppressorVerbs lists the known suppression verbs without referring to
// Analyzers() (which would form an initialization cycle through this
// analyzer itself). TestAnnotationVerbsMatchAnalyzers pins it to the
// Suppressor fields of the registered analyzers.
var suppressorVerbs = map[string]bool{
	"nondeterminism-ok": true,
	"alloc-ok":          true,
	"statslookup-ok":    true,
}

func runAnnotations(pass *Pass) error {
	suppressors := suppressorVerbs
	for _, a := range pass.Annotations() {
		switch {
		case markerVerbs[a.Verb]:
			// Markers take no reason; trailing text is treated as prose.
		case suppressors[a.Verb]:
			if a.Reason == "" {
				pass.Reportf(a.Pos, "//gsb:%s needs a reason: a waiver nobody can audit is a silencing", a.Verb)
			}
		default:
			pass.Reportf(a.Pos, "unknown //gsb: verb %q: the known marker is hotpath; known suppressions are the analyzer Suppressor verbs (gsbvet -list)", a.Verb)
		}
	}
	return nil
}
