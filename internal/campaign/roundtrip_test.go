package campaign

import (
	"testing"

	"repro/internal/lint"
)

// TestCheckpointStateRoundTrips checks the snapshot wire format: the
// header line and the payload reach every struct a snapshot serializes
// (OptionsHeader, Report, the engine states and the stats snapshot), and
// lint.RoundTripJSON requires each of their exported fields to carry an
// explicit, unique json name and to survive an encode/decode cycle.
func TestCheckpointStateRoundTrips(t *testing.T) {
	for _, v := range []any{&Header{}, &payload{}} {
		if err := lint.RoundTripJSON(v); err != nil {
			t.Error(err)
		}
	}
}
