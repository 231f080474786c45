package sched_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/sched"
	"repro/internal/tasks"
)

// TestPORPolicyReuseMatchesFresh: across the full sleep-set walk of
// slot renaming at n=3, atomic and regular, a porPolicy re-armed with
// reset behaves exactly like a fresh one on every frontier item, and the
// items it carves are never written after they are queued.
func TestPORPolicyReuseMatchesFresh(t *testing.T) {
	const n = 3
	_, build, err := campaign.SelectProtocol("slot-renaming", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := func() sched.Body { return tasks.Body(build(n)) }
	for _, model := range []string{"", "regular"} {
		items := sched.CheckPORPolicyReuse(t, n, model, body)
		if items < 100 {
			t.Errorf("model %q: walked only %d items; the walk is vacuous", model, items)
		}
		t.Logf("model %q: %d items", model, items)
	}
}
