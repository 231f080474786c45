package sched

import (
	"testing"

	"repro/internal/lint"
)

// TestCheckpointStateRoundTrips checks the wire format of the engine's
// checkpoint state: lint.RoundTripJSON requires every exported field of
// these structs, and of the structs they reach, to carry an explicit,
// unique json name and to survive an encode/decode cycle, so a field
// silently dropped by the wire format fails here by name.
func TestCheckpointStateRoundTrips(t *testing.T) {
	for _, v := range []any{
		&ExploreState{},
		&SeededState{},
	} {
		if err := lint.RoundTripJSON(v); err != nil {
			t.Error(err)
		}
	}
}
