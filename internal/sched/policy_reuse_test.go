package sched_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/sched"
	"repro/internal/tasks"
)

// TestPORPolicyReuseMatchesFresh: across the full sleep-set walks of
// slot renaming at n=3, atomic and regular, a porPolicy re-armed with
// reset behaves exactly like a fresh one on every frontier item, and the
// items it carves are never written after they are queued. It covers
// both walks: the filtered one of ReductionSleepSets and the unfiltered
// one of ReductionSleepMemo, which also visits the subtrees a sleeping
// decide blocks. The item count of each walk is pinned.
func TestPORPolicyReuseMatchesFresh(t *testing.T) {
	const n = 3
	_, build, err := campaign.SelectProtocol("slot-renaming", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := func() sched.Body { return tasks.Body(build(n)) }
	for _, tc := range []struct {
		model       string
		skipBlocked bool
		items       int
	}{
		{"", false, 1651},
		{"", true, 675},
		{"regular", false, 33983},
		{"regular", true, 13587},
	} {
		items := sched.CheckPORPolicyReuse(t, n, tc.model, tc.skipBlocked, body)
		if items != tc.items {
			t.Errorf("model %q, skipBlocked %v: walked %d items, want %d", tc.model, tc.skipBlocked, items, tc.items)
		}
	}
}
