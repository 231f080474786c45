package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The tests in cmd/ re-execute the test binary as the command under test
// (TestMain dispatches to main when GSB_CLI_UNDER_TEST is set), so every
// exit path — flag validation, mode conflicts, usage messages — is
// exercised exactly as a user hits it, without a separate build step.

func TestMain(m *testing.M) {
	if os.Getenv("GSB_CLI_UNDER_TEST") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSelf executes this test binary as the CLI with args.
func runSelf(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GSB_CLI_UNDER_TEST=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatalf("exec: %v", err)
	}
	return out.String(), errb.String(), code
}

// TestGsbrunInvalidFlags: every invalid flag combination must exit
// non-zero with a diagnostic on stderr — never panic, never succeed.
func TestGsbrunInvalidFlags(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantMsg  string // substring of stderr
	}{
		{"n-too-small", []string{"-n", "1"}, 2, "need n >= 2"},
		{"crash-out-of-range", []string{"-crash", "1.5"}, 2, "outside [0, 1]"},
		{"explore-crash-out-of-range", []string{"-explore", "-crash", "1.5"}, 2, "CrashProb"},
		{"sample-conflicts-explore", []string{"-sample", "10", "-explore"}, 2, "conflicts"},
		{"sample-conflicts-por", []string{"-sample", "10", "-por"}, 2, "conflicts"},
		{"pct-depth-without-sample", []string{"-pct-depth", "3"}, 2, "-pct-depth needs -sample"},
		{"unknown-protocol", []string{"-protocol", "bogus"}, 2, `unknown protocol "bogus"`},
		{"undefined-flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"negative-maxruns", []string{"-explore", "-maxruns", "-5"}, 2, "negative"},
		{"unknown-model", []string{"-model", "bogus"}, 2, `unknown memory model "bogus" (registered: atomic, regular, safe, stale-snapshot)`},
		{"unknown-adversary", []string{"-adversary", "bogus", "-explore", "-crash", "0.1", "-runs", "10"}, 2, `unknown adversary "bogus" (registered: uniform-crash, t-resilient, adaptive)`},
		{"adversary-without-crash-sweep", []string{"-adversary", "t-resilient"}, 2, "-adversary selects a crash-sweep strategy"},
		{"adversary-with-sample", []string{"-adversary", "t-resilient", "-sample", "10"}, 2, "-adversary selects a crash-sweep strategy"},
		{"por-without-explore", []string{"-por"}, 2, "-por needs -explore"},
		{"por-memo-without-explore", []string{"-por-memo"}, 2, "-por-memo needs -explore"},
		{"por-with-crash-sweep", []string{"-explore", "-crash", "0.1", "-por"}, 2, "-por needs -explore without -crash"},
		{"workers-seeded", []string{"-workers", "3"}, 2, "-workers needs -explore or -sample"},
		{"maxruns-seeded", []string{"-maxruns", "5"}, 2, "-maxruns needs -explore"},
		{"zero-runs", []string{"-runs", "0"}, 2, "-runs 0"},
		{"negative-runs", []string{"-runs", "-2"}, 2, "-runs -2"},
		{"explore-trace", []string{"-explore", "-trace"}, 2, "-trace needs a seeded run"},
		{"sample-trace", []string{"-sample", "20", "-trace"}, 2, "-trace needs a seeded run"},
		{"explore-runs-without-crash", []string{"-explore", "-runs", "7"}, 2, "-runs needs a seeded run or -explore -crash"},
		{"sample-runs", []string{"-sample", "20", "-runs", "5"}, 2, "-runs needs a seeded run or -explore -crash"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runSelf(t, tc.args...)
			if code != tc.wantCode {
				t.Errorf("args %v: exit %d, want %d\nstdout: %s\nstderr: %s", tc.args, code, tc.wantCode, stdout, stderr)
			}
			if !strings.Contains(stderr, tc.wantMsg) {
				t.Errorf("args %v: stderr %q does not mention %q", tc.args, stderr, tc.wantMsg)
			}
		})
	}
}

// TestGsbrunJSONSchema: -json records carry the versioned schema field
// downstream consumers key on, in every output mode.
func TestGsbrunJSONSchema(t *testing.T) {
	cases := [][]string{
		{"-json", "-n", "3", "-protocol", "renaming"},                  // seeded run
		{"-json", "-n", "2", "-protocol", "renaming", "-explore"},      // exhaustive
		{"-json", "-n", "3", "-protocol", "renaming", "-sample", "20"}, // sampling
	}
	for _, args := range cases {
		stdout, stderr, code := runSelf(t, args...)
		if code != 0 {
			t.Fatalf("args %v: exit %d\nstderr: %s", args, code, stderr)
		}
		var rec map[string]any
		line := strings.SplitN(strings.TrimSpace(stdout), "\n", 2)[0]
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("args %v: output is not JSON: %v\n%s", args, err, stdout)
		}
		if rec["schema"] != "gsbrun/v1" {
			t.Errorf("args %v: schema %v, want gsbrun/v1", args, rec["schema"])
		}
		if rec["ok"] != true {
			t.Errorf("args %v: record not ok: %v", args, rec)
		}
	}
}

// TestGsbrunModelAdversaryRecord: -model and -adversary thread into the
// engine and are echoed in the JSON record; the default names are
// normalized away (omitempty), so default records are byte-identical to
// pre-registry ones.
func TestGsbrunModelAdversaryRecord(t *testing.T) {
	cases := []struct {
		args          []string
		model, adv    any // expected record fields (nil = absent)
		wantSchedules bool
	}{
		{[]string{"-json", "-n", "3", "-protocol", "renaming", "-model", "regular"}, "regular", nil, false},
		{[]string{"-json", "-n", "2", "-protocol", "renaming", "-explore", "-model", "stale-snapshot"}, "stale-snapshot", nil, true},
		{[]string{"-json", "-n", "3", "-protocol", "renaming", "-explore", "-crash", "0.1", "-runs", "30", "-adversary", "adaptive"}, nil, "adaptive", true},
		{[]string{"-json", "-n", "3", "-protocol", "renaming", "-model", "atomic"}, nil, nil, false}, // explicit default normalizes away
	}
	for _, tc := range cases {
		stdout, stderr, code := runSelf(t, tc.args...)
		if code != 0 {
			t.Fatalf("args %v: exit %d\nstderr: %s", tc.args, code, stderr)
		}
		var rec map[string]any
		line := strings.SplitN(strings.TrimSpace(stdout), "\n", 2)[0]
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("args %v: output is not JSON: %v\n%s", tc.args, err, stdout)
		}
		if rec["model"] != tc.model {
			t.Errorf("args %v: model = %v, want %v", tc.args, rec["model"], tc.model)
		}
		if rec["adversary"] != tc.adv {
			t.Errorf("args %v: adversary = %v, want %v", tc.args, rec["adversary"], tc.adv)
		}
		if tc.wantSchedules && rec["schedules"] == nil {
			t.Errorf("args %v: no schedules in record: %v", tc.args, rec)
		}
	}
}
