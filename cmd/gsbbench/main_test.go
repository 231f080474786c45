package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func entry(name, mode, reduction string, schedules, classes int, runsPerSec, allocs float64) Entry {
	return Entry{
		Name: name, Mode: mode, Reduction: reduction,
		Schedules: schedules, Classes: classes,
		RunsPerSec: runsPerSec, AllocsPerRun: allocs,
	}
}

// TestCompareReports covers the regression gate's decision table:
// throughput drops beyond the limit fail, small drops pass, any
// meaningful allocs growth fails, schedule/class drift fails regardless
// of performance, runs-per-class drift fails where the baseline records
// the column, vanished baseline entries fail, new entries only note, and
// the allocs gauge is excluded.
func TestCompareReports(t *testing.T) {
	base := Report{Schema: "gsb-bench/v1", Entries: []Entry{
		{Name: "box-6-3", Reduction: "sleep-sets", Schedules: 720, RunsPerSec: 1000, AllocsPerRun: 100, RunsPerClass: 2.27},
		entry("slot-renaming-6", "sample-walk", "", 2000, 1980, 5000, 50),
		{Name: "runner-steady-state", Mode: "allocs-gauge", Schedules: 2000, RunsPerSec: 90000, AllocsPerStep: 0},
	}}

	cases := []struct {
		name     string
		mutate   func(*Report)
		wantFail string // substring of a failure, "" means the gate passes
		wantNote string
	}{
		{"identical", func(*Report) {}, "", ""},
		{"small-drop-ok", func(r *Report) { r.Entries[0].RunsPerSec = 800 }, "", ""},
		{"big-drop-fails", func(r *Report) { r.Entries[0].RunsPerSec = 700 }, "down 30%", ""},
		{"allocs-growth-fails", func(r *Report) { r.Entries[0].AllocsPerRun = 110 }, "allocs/run", ""},
		{"allocs-noise-ok", func(r *Report) { r.Entries[0].AllocsPerRun = 100.4 }, "", ""},
		{"schedule-drift-fails", func(r *Report) { r.Entries[0].Schedules = 719 }, "determinism drift", ""},
		{"class-drift-fails", func(r *Report) { r.Entries[1].Classes = 1979 }, "determinism drift", ""},
		{"runs-per-class-drift-fails", func(r *Report) { r.Entries[0].RunsPerClass = 2.5 }, "runs per class", ""},
		{"runs-per-class-unrecorded-ok", func(r *Report) { r.Entries[1].RunsPerClass = 3 }, "", ""},
		{"missing-entry-fails", func(r *Report) { r.Entries = r.Entries[1:] }, "coverage hole", ""},
		{"new-entry-notes", func(r *Report) {
			r.Entries = append(r.Entries, entry("new-case", "", "none", 10, 0, 1, 1))
		}, "", "no baseline"},
		{"gauge-excluded", func(r *Report) { r.Entries[2].RunsPerSec = 1 }, "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := Report{Schema: base.Schema}
			cur.Entries = append([]Entry(nil), base.Entries...)
			tc.mutate(&cur)
			failures, notes, _ := compareReports(cur, base, 0.25, 0.02)
			if tc.wantFail == "" && len(failures) > 0 {
				t.Errorf("unexpected failures: %v", failures)
			}
			if tc.wantFail != "" && !strings.Contains(strings.Join(failures, "\n"), tc.wantFail) {
				t.Errorf("failures %v do not mention %q", failures, tc.wantFail)
			}
			if tc.wantNote != "" && !strings.Contains(strings.Join(notes, "\n"), tc.wantNote) {
				t.Errorf("notes %v do not mention %q", notes, tc.wantNote)
			}
		})
	}
}

// TestCompareReportsPairsRegressions: the gate returns the
// (baseline, current) entry pair for performance failures — and only
// those — so main can diff their CPU profiles.
func TestCompareReportsPairsRegressions(t *testing.T) {
	base := Report{Schema: "gsb-bench/v1", Entries: []Entry{
		entry("box-6-3", "", "sleep-sets", 720, 0, 1000, 100),
		entry("slot-renaming-2", "", "sleep-sets", 8, 0, 9000, 10),
	}}
	cur := Report{Schema: base.Schema, Entries: []Entry{
		entry("box-6-3", "", "sleep-sets", 720, 0, 500, 100),       // throughput drop
		entry("slot-renaming-2", "", "sleep-sets", 7, 0, 9000, 10), // drift, not perf
	}}
	failures, _, regressed := compareReports(cur, base, 0.25, 0.02)
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want drop + drift", failures)
	}
	if len(regressed) != 1 || regressed[0][0].Name != "box-6-3" || regressed[0][1].RunsPerSec != 500 {
		t.Fatalf("regressed pairs = %+v, want the single throughput drop", regressed)
	}
}

// The committed fixture pair is a tiny synthetic CPU profile and the
// same profile with hotStep inflated (`go tool pprof -top` shows each):
// per 1000ns of cpu time, base spends hotStep 400, decideSlot 300,
// TaskBox.Read 200 and frontier.pop 100; regressed spends 700, 100, 125
// and 75. The diff carries both signs.
const (
	baseFixture      = "testdata/base.pprof"
	regressedFixture = "testdata/regressed.pprof"
)

// Rows of the fixture diff in pprof's -top format: flat delta, its
// share of the base total, then the function.
var (
	hotStepRow    = regexp.MustCompile(`^ +300ns +30\.00% .*hotStep$`)
	decideSlotRow = regexp.MustCompile(`^ +-200ns +20\.00% .*decideSlot$`)
)

// tableRows returns the function rows of a pprof -top table: the lines
// after its column header.
func tableRows(t *testing.T, table string) []string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	for i, line := range lines {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "flat" {
			return lines[i+1:]
		}
	}
	t.Fatalf("no column header in:\n%s", table)
	return nil
}

// TestPprofDiffGolden pins the explanation of the fixture pair: hotStep
// ranks first at +30 points of share, decideSlot follows at -20, and
// -explain-top truncates to the largest shifts.
func TestPprofDiffGolden(t *testing.T) {
	table, err := pprofDiff(baseFixture, regressedFixture, 10)
	if err != nil {
		t.Fatal(err)
	}
	rows := tableRows(t, table)
	if len(rows) != 4 || !hotStepRow.MatchString(rows[0]) || !decideSlotRow.MatchString(rows[1]) {
		t.Errorf("want hotStep +300ns/30.00%% then decideSlot -200ns/20.00%% of 4 rows:\n%s", table)
	}
	top1, err := pprofDiff(baseFixture, regressedFixture, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows := tableRows(t, top1); len(rows) != 1 || !hotStepRow.MatchString(rows[0]) {
		t.Errorf("top-1 explanation wrong:\n%s", top1)
	}
}

// TestPprofDiffIdentical: a profile diffed against itself lists no
// function.
func TestPprofDiffIdentical(t *testing.T) {
	table, err := pprofDiff(baseFixture, baseFixture, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rows := tableRows(t, table); len(rows) != 0 {
		t.Errorf("self-diff lists %d functions:\n%s", len(rows), table)
	}
}

// TestCommittedProfilesRead: every profile the committed baseline report
// names exists under profiles/ and pprof reads it, so a failed -compare
// gate can always explain against it.
func TestCommittedProfilesRead(t *testing.T) {
	base, err := readBaseline("../../BENCH_sched.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range base.Entries {
		if e.Profile == "" {
			t.Errorf("%s: baseline entry names no profile", entryKey(e))
			continue
		}
		path := filepath.Join("../../profiles", e.Profile)
		if out, err := exec.Command("go", "tool", "pprof", "-symbolize=none", "-top", path).CombinedOutput(); err != nil {
			t.Errorf("%s: %v\n%s", path, err, out)
		}
	}
}

// TestExplainRejectsBadInput: -explain fails on a file that is not a
// profile, on a missing file and on a malformed pair.
func TestExplainRejectsBadInput(t *testing.T) {
	garbage := filepath.Join(t.TempDir(), "garbage.pprof")
	if err := os.WriteFile(garbage, []byte{0xff, 0xff, 0xff}, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, pair := range []string{
		garbage + "," + regressedFixture,
		baseFixture + "," + garbage,
		baseFixture + ",testdata/missing.pprof",
		baseFixture,
	} {
		var buf strings.Builder
		if err := explainPair(&buf, pair, 10); err == nil {
			t.Errorf("-explain %s: no error, printed:\n%s", pair, buf.String())
		}
	}
}

// TestExplainRegressions exercises the profile-diff explanation against
// the committed induced-regression fixture pair, plus the degraded
// no-profile path.
func TestExplainRegressions(t *testing.T) {
	b := entry("box-6-3", "", "sleep-sets", 720, 0, 1000, 100)
	c := b
	c.RunsPerSec = 500
	b.Profile, c.Profile = "base.pprof", "regressed.pprof"
	var buf strings.Builder
	explainRegressions(&buf, [][2]Entry{{b, c}}, "testdata", "testdata", 10)
	out := buf.String()
	if !strings.Contains(out, "box-6-3||sleep-sets|0: top-10 flat-time shifts") {
		t.Errorf("explanation heading missing:\n%s", out)
	}
	if rows := tableRows(t, out); len(rows) == 0 || !hotStepRow.MatchString(rows[0]) {
		t.Errorf("explanation does not lead with hotStep's +300ns/30.00%% row:\n%s", out)
	}

	buf.Reset()
	c.Profile = ""
	explainRegressions(&buf, [][2]Entry{{b, c}}, "profiles", "", 10)
	if !strings.Contains(buf.String(), "no profile pair") {
		t.Errorf("missing-profile note absent:\n%s", buf.String())
	}

	buf.Reset()
	c.Profile = "nonexistent.pprof"
	explainRegressions(&buf, [][2]Entry{{b, c}}, "testdata", "testdata", 10)
	if !strings.Contains(buf.String(), "cannot explain") {
		t.Errorf("unreadable-profile note absent:\n%s", buf.String())
	}
}

// TestBaselineSetsGOMAXPROCS: -compare measures at the baseline report's
// GOMAXPROCS, so the allocs and throughput gates compare runs made at
// the same core count; a baseline without the field changes nothing,
// and a baseline of another schema is refused.
func TestBaselineSetsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, procs := range []int{1, 2, 1} {
		base, err := readBaseline(write("b.json", `{"schema":"gsb-bench/v1","gomaxprocs":`+strconv.Itoa(procs)+`,"entries":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		matchBaselineProcs(base)
		if got := runtime.GOMAXPROCS(0); got != procs {
			t.Errorf("baseline gomaxprocs %d: measuring at GOMAXPROCS %d", procs, got)
		}
	}
	runtime.GOMAXPROCS(2)
	matchBaselineProcs(Report{Schema: reportSchema})
	if got := runtime.GOMAXPROCS(0); got != 2 {
		t.Errorf("baseline without gomaxprocs changed GOMAXPROCS to %d", got)
	}
	if _, err := readBaseline(write("old.json", `{"schema":"gsb-bench/v0","gomaxprocs":1}`)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("baseline of another schema: err = %v, want a schema error", err)
	}
}
