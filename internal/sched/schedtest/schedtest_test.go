package schedtest

import (
	"errors"
	"testing"

	"repro/internal/sched"
)

// TestDFSPolicyScheduleDivergedError: a prefix granting a process a step
// it does not have makes the oracle's policy abort the run with
// ErrScheduleDiverged, which the runner returns from Run.
func TestDFSPolicyScheduleDivergedError(t *testing.T) {
	body := func(p *sched.Proc) {
		p.Exec("X.write", func() any { return nil })
		p.Decide(p.ID())
	}
	// Process 0 takes write+decide = 2 steps; a 3rd diverges.
	policy := &dfsPolicy{prefix: []int{0, 0, 0}}
	_, err := sched.NewRunner(2, sched.DefaultIDs(2), policy).Run(body)
	if !errors.Is(err, sched.ErrScheduleDiverged) {
		t.Fatalf("err = %v, want ErrScheduleDiverged", err)
	}
}

// TestExploreSequentialNondeterministicProtocolError: a protocol whose
// step count depends on the build invocation diverges from the prefixes
// recorded by its first run, and ExploreSequential reports it.
func TestExploreSequentialNondeterministicProtocolError(t *testing.T) {
	builds := 0
	build := func() sched.Body {
		builds++
		k := 1
		if builds == 1 {
			k = 3
		}
		return func(p *sched.Proc) {
			for i := 0; i < k; i++ {
				p.Exec("X.write", func() any { return nil })
			}
			p.Decide(p.ID())
		}
	}
	ok := func(*sched.Result) error { return nil }
	_, err := ExploreSequential(3, sched.DefaultIDs(3), 1<<20, 1000, build, ok)
	if !errors.Is(err, sched.ErrScheduleDiverged) {
		t.Fatalf("err = %v, want ErrScheduleDiverged", err)
	}
}
