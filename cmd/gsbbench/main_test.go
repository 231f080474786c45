package main

import (
	"os"
	"path/filepath"
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
// of performance, vanished baseline entries fail, new entries only note,
// and the allocs gauge is excluded.
func TestCompareReports(t *testing.T) {
	base := Report{Schema: "gsb-bench/v1", Entries: []Entry{
		entry("box-6-3", "", "sleep-sets", 720, 0, 1000, 100),
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

// TestExplainRegressions exercises the profile-diff explanation against
// the committed induced-regression fixture pair, plus the degraded
// no-profile path.
func TestExplainRegressions(t *testing.T) {
	b := entry("box-6-3", "", "sleep-sets", 720, 0, 1000, 100)
	c := b
	c.RunsPerSec = 500
	b.Profile, c.Profile = "base.pprof", "regressed.pprof"
	var buf strings.Builder
	explainRegressions(&buf, [][2]Entry{{b, c}}, "../../internal/profdiff/testdata", "../../internal/profdiff/testdata", 10)
	out := buf.String()
	for _, want := range []string{
		"box-6-3||sleep-sets|0: top-10 flat-time shifts",
		"repro/internal/sched.(*runner).hotStep",
		"+30.00%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explanation missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	c.Profile = ""
	explainRegressions(&buf, [][2]Entry{{b, c}}, "profiles", "", 10)
	if !strings.Contains(buf.String(), "no profile pair") {
		t.Errorf("missing-profile note absent:\n%s", buf.String())
	}

	buf.Reset()
	c.Profile = "nonexistent.pprof"
	explainRegressions(&buf, [][2]Entry{{b, c}}, "../../internal/profdiff/testdata", "../../internal/profdiff/testdata", 10)
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
