package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("GSB_CLI_UNDER_TEST") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

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

// TestGsbclassifyFamilyArtifacts: -family prints Table 1, Figure 1 and
// the solvability census of the <n,m,-,-> family in that order, -dot
// prints Figure 1 alone as Graphviz, and an empty family is a usage
// error.
func TestGsbclassifyFamilyArtifacts(t *testing.T) {
	stdout, stderr, code := runSelf(t, "-n", "4", "-m", "2", "-family")
	if code != 0 {
		t.Fatalf("-family: exit %d\nstderr: %s", code, stderr)
	}
	last := -1
	for _, section := range []string{
		"Kernels of <4,2,l,u>-GSB tasks",
		"Canonical <4,2,-,-> GSB tasks, ordered by strict inclusion",
		"Wait-free solvability of the <4,2,-,-> family",
	} {
		i := strings.Index(stdout, section)
		if i <= last {
			t.Errorf("-family output lacks %q after the previous section:\n%s", section, stdout)
		}
		last = i
	}
	stdout, _, code = runSelf(t, "-n", "4", "-m", "2", "-dot")
	if code != 0 || !strings.HasPrefix(stdout, "digraph") || strings.Contains(stdout, "Kernels") {
		t.Errorf("-dot: exit %d, want Graphviz only:\n%s", code, stdout)
	}
	if _, stderr, code := runSelf(t, "-n", "0", "-family"); code != 2 || !strings.Contains(stderr, "need n,m >= 1") {
		t.Errorf("-n 0 -family: exit %d, stderr %q", code, stderr)
	}
}
