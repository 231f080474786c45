package main

import (
	"strings"
	"testing"
)

// section returns the lines that follow the line equal to header, up to
// the next blank line or the end of the output.
func section(out, header string) []string {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if l != header {
			continue
		}
		var body []string
		for _, l := range lines[i+1:] {
			if l == "" {
				break
			}
			body = append(body, l)
		}
		return body
	}
	return nil
}

// TestTheorem11Golden pins the bounded-round certificate section of the
// report byte for byte: every certificate's round bound and both positive
// controls.
func TestTheorem11Golden(t *testing.T) {
	stdout, stderr, code := runSelf(t)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	want := []string{
		"  election n=2          : no comparison-based protocol in <= 3 IIS rounds",
		"  election n=3          : no comparison-based protocol in <= 2 IIS rounds",
		"  election n=4          : no comparison-based protocol in <= 1 IIS rounds",
		"  perfect renaming n=3  : no comparison-based protocol in <= 2 IIS rounds",
		"  WSB n=3               : no comparison-based protocol in <= 2 IIS rounds",
		"  WSB n=4               : no comparison-based protocol in <= 1 IIS rounds",
		"  positive controls:",
		"  3-renaming n=2        : decision map found at 1 round(s)",
		"  6-renaming n=3        : decision map found at 1 round(s)",
	}
	got := section(stdout, "== Theorem 11: bounded-round impossibility certificates ==")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("Theorem 11 section:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
