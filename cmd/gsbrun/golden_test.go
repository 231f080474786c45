package main

import "testing"

// TestGsbrunGoldenRecords pins the exact -json record bytes and exit code
// of every verification mode CI and the README drive: a seeded run (with
// and without crashes), exhaustive and sleep-set exploration under a weak
// memory model, crash sweeps, walk and PCT sampling, and the PCT sample
// that finds the splitter grid's violation under safe registers. Any
// change to how a flag reaches the engine shows up here as a byte diff.
func TestGsbrunGoldenRecords(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		want     string
	}{
		{
			"run", []string{"-json", "-protocol", "wsb", "-n", "4", "-seed", "2"}, 0,
			`{"schema":"gsbrun/v1","protocol":"wsb","task":"\u003c4,2,1,3\u003e-GSB","mode":"run","n":4,"seed":2,"schedules":1,"ok":true,"outputs":[1,1,2,1],"steps":8}` + "\n",
		},
		{
			"run-crash", []string{"-json", "-protocol", "slot-renaming", "-n", "4", "-crash", "0.2", "-seed", "5", "-runs", "2"}, 0,
			`{"schema":"gsbrun/v1","protocol":"slot-renaming","task":"\u003c4,5,0,1\u003e-GSB","mode":"run","n":4,"seed":5,"schedules":1,"ok":true,"outputs":[2,4,1,0],"crashed":[3],"steps":13}` + "\n" +
				`{"schema":"gsbrun/v1","protocol":"slot-renaming","task":"\u003c4,5,0,1\u003e-GSB","mode":"run","n":4,"seed":6,"schedules":1,"ok":true,"outputs":[0,0,5,0],"crashed":[0,1,3],"steps":8}` + "\n",
		},
		{
			"explore", []string{"-json", "-explore", "-protocol", "renaming", "-n", "2"}, 0,
			`{"schema":"gsbrun/v1","protocol":"renaming","task":"\u003c2,3,0,1\u003e-GSB","mode":"explore","n":2,"seed":1,"schedules":116,"ok":true}` + "\n",
		},
		{
			"explore-por-regular", []string{"-json", "-explore", "-por", "-protocol", "renaming", "-n", "2", "-model", "regular"}, 0,
			`{"schema":"gsbrun/v1","protocol":"renaming","task":"\u003c2,3,0,1\u003e-GSB","mode":"explore","n":2,"seed":1,"model":"regular","schedules":188,"ok":true}` + "\n",
		},
		{
			"explore-por-memo-regular", []string{"-json", "-explore", "-por-memo", "-protocol", "renaming", "-n", "2", "-model", "regular"}, 0,
			`{"schema":"gsbrun/v1","protocol":"renaming","task":"\u003c2,3,0,1\u003e-GSB","mode":"explore","n":2,"seed":1,"model":"regular","schedules":188,"ok":true}` + "\n",
		},
		{
			"crash-sweep-adaptive-safe", []string{"-json", "-explore", "-crash", "0.1", "-runs", "2000", "-adversary", "adaptive", "-model", "safe", "-protocol", "renaming", "-n", "3"}, 0,
			`{"schema":"gsbrun/v1","protocol":"renaming","task":"\u003c3,5,0,1\u003e-GSB","mode":"crash-sweep","n":3,"seed":1,"model":"safe","adversary":"adaptive","schedules":2000,"ok":true}` + "\n",
		},
		{
			"crash-sweep-workers", []string{"-json", "-explore", "-workers", "2", "-crash", "0.05", "-runs", "300", "-protocol", "wsb", "-n", "4"}, 0,
			`{"schema":"gsbrun/v1","protocol":"wsb","task":"\u003c4,2,1,3\u003e-GSB","mode":"crash-sweep","n":4,"seed":1,"workers":2,"schedules":300,"ok":true}` + "\n",
		},
		{
			"sample-walk", []string{"-json", "-sample", "2000", "-n", "8", "-protocol", "slot-renaming"}, 0,
			`{"schema":"gsbrun/v1","protocol":"slot-renaming","task":"\u003c8,9,0,1\u003e-GSB","mode":"sample-walk","n":8,"seed":1,"schedules":2000,"classes":2000,"coverage":1,"ok":true}` + "\n",
		},
		{
			"sample-pct", []string{"-json", "-sample", "2000", "-pct-depth", "3", "-n", "8", "-protocol", "slot-renaming"}, 0,
			`{"schema":"gsbrun/v1","protocol":"slot-renaming","task":"\u003c8,9,0,1\u003e-GSB","mode":"sample-pct","n":8,"seed":1,"schedules":2000,"classes":1994,"coverage":0.997,"pct_depth":3,"ok":true}` + "\n",
		},
		{
			"sample-pct-safe-grid-violation", []string{"-json", "-sample", "500", "-pct-depth", "3", "-protocol", "grid", "-n", "3", "-model", "safe"}, 1,
			`{"schema":"gsbrun/v1","protocol":"grid","task":"\u003c3,6,0,1\u003e-GSB","mode":"sample-pct","n":3,"seed":1,"model":"safe","schedules":113,"classes":51,"coverage":0.45132743362831856,"pct_depth":3,"ok":false,"violation":"sample: pct run 112 (seed -6708957701458484386) violates property: tasks: output [1 1 2] violates \u003c3,6,0,1\u003e-GSB: gsb: value 1 decided 2 times, above upper bound 1","failed_run":112,"failed_seed":-6708957701458484386}` + "\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runSelf(t, tc.args...)
			if code != tc.wantCode {
				t.Errorf("args %v: exit %d, want %d\nstderr: %s", tc.args, code, tc.wantCode, stderr)
			}
			if stdout != tc.want {
				t.Errorf("args %v: records differ\n got: %s\nwant: %s", tc.args, stdout, tc.want)
			}
		})
	}
}
