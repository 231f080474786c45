package harness

import (
	"strings"
	"testing"

	"repro/internal/sched"
)

func TestTable1Golden(t *testing.T) {
	// Pin the regenerated Table 1 exactly. The paper's table shows the
	// same kernel sets and canonical flags; our table additionally lists
	// the feasible <6,3,2,6> row that the paper omits (see README.md,
	// "Paper versus measured").
	got := Table1(6, 3)
	want := strings.Join([]string{
		"Kernels of <6,3,l,u>-GSB tasks",
		"task             canonical [6,0,0] [5,1,0] [4,2,0] [4,1,1] [3,3,0] [3,2,1] [2,2,2]",
		"<6,3,0,6>-GSB    yes          x       x       x       x       x       x       x   ",
		"<6,3,1,6>-GSB                                         x               x       x   ",
		"<6,3,2,6>-GSB                                                                 x   ",
		"<6,3,0,5>-GSB    yes                  x       x       x       x       x       x   ",
		"<6,3,1,5>-GSB                                         x               x       x   ",
		"<6,3,2,5>-GSB                                                                 x   ",
		"<6,3,0,4>-GSB    yes                          x       x       x       x       x   ",
		"<6,3,1,4>-GSB    yes                                  x               x       x   ",
		"<6,3,2,4>-GSB                                                                 x   ",
		"<6,3,0,3>-GSB    yes                                          x       x       x   ",
		"<6,3,1,3>-GSB    yes                                                  x       x   ",
		"<6,3,2,3>-GSB                                                                 x   ",
		"<6,3,0,2>-GSB                                                                 x   ",
		"<6,3,1,2>-GSB                                                                 x   ",
		"<6,3,2,2>-GSB    yes                                                          x   ",
		"",
	}, "\n")
	if got != want {
		t.Errorf("Table1(6,3) mismatch.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestTable1KernelColumnsMatchPaper(t *testing.T) {
	got := Table1(6, 3)
	for _, col := range []string{"[6,0,0]", "[5,1,0]", "[4,2,0]", "[4,1,1]", "[3,3,0]", "[3,2,1]", "[2,2,2]"} {
		if !strings.Contains(got, col) {
			t.Errorf("Table1 missing kernel column %s", col)
		}
	}
	// Exactly 7 canonical rows.
	if got := strings.Count(got, "yes"); got != 7 {
		t.Errorf("Table1 has %d canonical rows, want 7", got)
	}
}

func TestTable1Infeasible(t *testing.T) {
	if got := Table1(3, 10); !strings.Contains(got, "Kernels") {
		// m*1 > n only when l>0; with l=0 family is non-empty for any m.
		t.Errorf("unexpected output %q", got)
	}
}

func TestFigure1TextGolden(t *testing.T) {
	got := Figure1Text(6, 3)
	// The seven canonical tasks, in Figure 1's order.
	for _, s := range []string{
		"<6,3,0,6>-GSB", "<6,3,0,5>-GSB", "<6,3,0,4>-GSB",
		"<6,3,1,4>-GSB", "<6,3,0,3>-GSB", "<6,3,1,3>-GSB", "<6,3,2,2>-GSB",
	} {
		if !strings.Contains(got, s) {
			t.Errorf("Figure1Text missing %s", s)
		}
	}
	// The seven Hasse edges of Figure 1.
	for _, e := range []string{
		"<6,3,0,6>-GSB -> <6,3,0,5>-GSB",
		"<6,3,0,5>-GSB -> <6,3,0,4>-GSB",
		"<6,3,0,4>-GSB -> <6,3,1,4>-GSB",
		"<6,3,0,4>-GSB -> <6,3,0,3>-GSB",
		"<6,3,1,4>-GSB -> <6,3,1,3>-GSB",
		"<6,3,0,3>-GSB -> <6,3,1,3>-GSB",
		"<6,3,1,3>-GSB -> <6,3,2,2>-GSB",
	} {
		if !strings.Contains(got, e) {
			t.Errorf("Figure1Text missing edge %s", e)
		}
	}
	// 7 Hasse edge lines (the title and legend also contain "->" as a
	// substring of "<6,3,-,->" and the legend arrow).
	edgeLines := 0
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "  <") && strings.Contains(line, " -> ") {
			edgeLines++
		}
	}
	if edgeLines != 7 {
		t.Errorf("Figure1Text has %d edge lines, want 7", edgeLines)
	}
}

func TestFigure1DOT(t *testing.T) {
	got := Figure1DOT(6, 3)
	if !strings.HasPrefix(got, "digraph gsb {") || !strings.HasSuffix(got, "}\n") {
		t.Error("DOT output malformed")
	}
	if !strings.Contains(got, `"<6,3,1,3>-GSB" -> "<6,3,2,2>-GSB";`) {
		t.Error("DOT missing final edge")
	}
	if !strings.Contains(got, "doubleoctagon") {
		t.Error("DOT should mark the (l,u)-anchored task")
	}
}

func TestFigure2Experiment(t *testing.T) {
	rows, err := Figure2Experiment([]int{2, 3, 5}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if !r.AllValid {
			t.Errorf("n=%d: invalid outputs", r.N)
		}
		if r.MaxName > r.N+1 {
			t.Errorf("n=%d: max name %d exceeds n+1", r.N, r.MaxName)
		}
		if r.MeanSteps <= 0 {
			t.Errorf("n=%d: nonpositive mean steps", r.N)
		}
	}
	text := Figure2Text(rows)
	if !strings.Contains(text, "(n+1)-renaming") || strings.Count(text, "\n") < 4 {
		t.Errorf("Figure2Text malformed:\n%s", text)
	}
}

func TestSolvabilityText(t *testing.T) {
	got := SolvabilityText(6, 3)
	if !strings.Contains(got, "<6,3,2,2>-GSB") {
		t.Error("missing family member")
	}
	if !strings.Contains(got, "trivial") {
		t.Error("the <6,3,0,6> task should be trivial")
	}
}

func TestGCDTableText(t *testing.T) {
	got := GCDTableText(12)
	if !strings.Contains(got, "NOT solvable") || !strings.Contains(got, "solvable") {
		t.Errorf("GCD table should contain both statuses:\n%s", got)
	}
	for _, frag := range []string{"    6    1", "    8    2", "    9    3", "   12    1"} {
		if !strings.Contains(got, frag) {
			t.Errorf("GCD table missing row fragment %q:\n%s", frag, got)
		}
	}
}

func TestExploreExperiment(t *testing.T) {
	rows, err := ExploreExperiment([]int{2}, 2, 50, sched.ReductionNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	// 2 processes x 4 steps each (slot invoke, write, snapshot, decide):
	// C(8,4) = 70 distinct failure-free schedules.
	if r.Schedules != 70 {
		t.Errorf("n=2: explored %d schedules, want 70", r.Schedules)
	}
	if r.CrashRuns != 50 {
		t.Errorf("n=2: %d crash runs, want 50", r.CrashRuns)
	}
	if r.Workers != 2 {
		t.Errorf("n=2: workers = %d, want 2", r.Workers)
	}
	text := ExploreText(rows)
	if !strings.Contains(text, "every failure-free schedule") || !strings.Contains(text, "70") {
		t.Errorf("ExploreText malformed:\n%s", text)
	}
}

func TestExploreExperimentPOR(t *testing.T) {
	exhaustive, err := ExploreExperiment([]int{2, 3}, 2, 20, sched.ReductionNone)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := ExploreExperiment([]int{2, 3}, 2, 20, sched.ReductionSleepSets)
	if err != nil {
		t.Fatalf("reduced exploration changed the verdict: %v", err)
	}
	for i := range reduced {
		if reduced[i].Schedules >= exhaustive[i].Schedules {
			t.Errorf("n=%d: reduction explored %d schedules, want fewer than %d",
				reduced[i].N, reduced[i].Schedules, exhaustive[i].Schedules)
		}
	}
	text := ExploreText(reduced)
	if !strings.Contains(text, "sleep-sets") {
		t.Errorf("ExploreText missing the reduction column:\n%s", text)
	}
}

func TestSampleExperiment(t *testing.T) {
	// n=5 slot renaming: beyond both the exhaustive and the reduced
	// exploration (the class count alone exceeds 10^8), but trivially
	// sampleable. The batch is seeded, so every field is deterministic.
	rows, err := SampleExperiment([]int{5}, 2, 60, sched.SampleWalk, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.Runs != 60 {
		t.Errorf("runs = %d, want 60", r.Runs)
	}
	if r.Classes < 2 || r.Classes > r.Runs {
		t.Errorf("implausible class count %d over %d runs", r.Classes, r.Runs)
	}
	if r.Coverage() <= 0 || r.Coverage() > 1 {
		t.Errorf("implausible coverage %v", r.Coverage())
	}
	again, err := SampleExperiment([]int{5}, 1, 60, sched.SampleWalk, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Classes != r.Classes {
		t.Errorf("class coverage differs across worker counts: %d vs %d", again[0].Classes, r.Classes)
	}

	pct, err := SampleExperiment([]int{5}, 2, 60, sched.SamplePCT, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pct[0].Depth != 3 {
		t.Errorf("PCT depth = %d, want 3", pct[0].Depth)
	}

	text := SampleText(append(rows, pct...))
	if !strings.Contains(text, "walk") || !strings.Contains(text, "pct") || !strings.Contains(text, "coverage") {
		t.Errorf("SampleText malformed:\n%s", text)
	}
}
