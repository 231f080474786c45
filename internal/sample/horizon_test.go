package sample_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/tasks"
)

// TestPCTHorizonFollowsModel: a PCT batch draws its change points over
// the round-robin run length in the batch's own memory model. The weak
// models split writes and reads into more steps, so a horizon measured
// under the atomic model would leave the tail of every run without a
// priority change. The pinned lengths are n=3 round-robin runs.
func TestPCTHorizonFollowsModel(t *testing.T) {
	cases := []struct {
		protocol string
		want     map[string]int // horizon per memory model
	}{
		{"grid", map[string]int{sched.ModelAtomic: 27, sched.ModelRegular: 39, sched.ModelSafe: 39, sched.ModelStaleSnapshot: 27}},
		{"renaming", map[string]int{sched.ModelAtomic: 15, sched.ModelRegular: 21, sched.ModelSafe: 21, sched.ModelStaleSnapshot: 27}},
		{"slot-renaming", map[string]int{sched.ModelAtomic: 12, sched.ModelRegular: 15, sched.ModelSafe: 15, sched.ModelStaleSnapshot: 18}},
	}
	const n = 3
	ids := sched.DefaultIDs(n)
	for _, tc := range cases {
		_, build, err := campaign.SelectProtocol(tc.protocol, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		body := func() sched.Body { return tasks.Body(build(n)) }
		for _, model := range sched.MemModels() {
			r := &sample.ResumableBatch{
				N: n, IDs: ids, Build: body,
				Opts: sched.ExploreOptions{SampleRuns: 1, SampleMode: sched.SamplePCT, Model: model},
			}
			st, err := r.Init(0, 1)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.protocol, model, err)
			}
			m, _ := sched.MemModelByName(model)
			res, err := sched.NewRunner(n, ids, sched.NewRoundRobin(), sched.WithModel(m)).Run(body())
			if err != nil {
				t.Fatalf("%s %s: round-robin run: %v", tc.protocol, model, err)
			}
			if st.Horizon != res.Steps || st.Horizon != tc.want[model] {
				t.Errorf("%s %s: horizon %d, round-robin run under the model %d steps, pinned %d", tc.protocol, model, st.Horizon, res.Steps, tc.want[model])
			}
		}
	}
}
