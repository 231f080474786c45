package main

import (
	"bytes"
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

func runSelf(t *testing.T) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "GSB_CLI_UNDER_TEST=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errb.String())
	}
	return out.String()
}

// TestCertificatesGolden pins the certificate block byte for byte: each
// instance is exhausted at every round count up to its bound.
func TestCertificatesGolden(t *testing.T) {
	const header = "Fresh bounded-round impossibility certificates (computed now):\n"
	want := header +
		"  election, n=3          rounds 0..2: no comparison-based protocol exists\n" +
		"  WSB, n=3               rounds 0..2: no comparison-based protocol exists\n" +
		"  perfect renaming, n=3  rounds 0..2: no comparison-based protocol exists\n" +
		"  election, n=5          rounds 0..1: no comparison-based protocol exists\n"
	out := runSelf(t)
	i := strings.Index(out, header)
	if i < 0 {
		t.Fatalf("output lacks %q:\n%s", header, out)
	}
	if got := out[i:]; got != want {
		t.Errorf("certificate block:\n%s\nwant:\n%s", got, want)
	}
}
