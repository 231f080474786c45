package stats

import (
	"testing"

	"repro/internal/lint"
)

// TestCheckpointStateRoundTrips checks the wire format of the package's
// checkpoint state with lint.RoundTripJSON: every exported field carries
// an explicit, unique json name and survives an encode/decode cycle.
func TestCheckpointStateRoundTrips(t *testing.T) {
	for _, v := range []any{
		&Snapshot{},
		&HistogramSnapshot{},
	} {
		if err := lint.RoundTripJSON(v); err != nil {
			t.Error(err)
		}
	}
}
