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

// TestTheorem11Golden pins sections of the report byte for byte, all
// from one run of the suite: the bounded-round certificate section (every
// certificate's round bound and both positive controls) and the
// message-passing baselines (each Cole-Vishkin round count, reliable and
// under the message adversary).
func TestTheorem11Golden(t *testing.T) {
	stdout, stderr, code := runSelf(t)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	for _, c := range []struct {
		header string
		want   []string
	}{
		{"== Theorem 11: bounded-round impossibility certificates ==", []string{
			"  election n=2          : no comparison-based protocol in <= 3 IIS rounds",
			"  election n=3          : no comparison-based protocol in <= 2 IIS rounds",
			"  election n=4          : no comparison-based protocol in <= 1 IIS rounds",
			"  perfect renaming n=3  : no comparison-based protocol in <= 2 IIS rounds",
			"  WSB n=3               : no comparison-based protocol in <= 2 IIS rounds",
			"  WSB n=4               : no comparison-based protocol in <= 1 IIS rounds",
			"  positive controls:",
			"  3-renaming n=2        : decision map found at 1 round(s)",
			"  6-renaming n=3        : decision map found at 1 round(s)",
		}},
		{"== Baselines: message-passing symmetry breaking ==", []string{
			"  Cole-Vishkin ring 64: 3-colored in 7 rounds",
			"  Cole-Vishkin ring 4096: 3-colored in 8 rounds",
			"  Cole-Vishkin ring 64 under loss=0.15 delay=0.10 reorder=0.10: 3-colored in 48 rounds",
		}},
	} {
		got := section(stdout, c.header)
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s\n%s\nwant:\n%s", c.header, strings.Join(got, "\n"), strings.Join(c.want, "\n"))
		}
	}
}
