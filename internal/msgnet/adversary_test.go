package msgnet

import (
	"maps"
	"math"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/stats"
)

// TestMetricNameMatchesSched pins the cross-substrate metric contract:
// the message adversary and the shared-memory crash adversaries publish
// the same counter, so one gsb_adversary_events_total totals all
// adversary-injected faults.
func TestMetricNameMatchesSched(t *testing.T) {
	if MetricAdversaryEvents != sched.MetricAdversaryEvents {
		t.Fatalf("msgnet metric %q != sched metric %q", MetricAdversaryEvents, sched.MetricAdversaryEvents)
	}
}

func TestNetAdversaryValidate(t *testing.T) {
	ok := []NetAdversary{
		{},
		{LossProb: 1, DelayProb: 1, ReorderProb: 1},
		{LossProb: 0.5},
	}
	for _, a := range ok {
		if err := a.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", a, err)
		}
	}
	bad := []NetAdversary{
		{LossProb: -0.1},
		{DelayProb: 1.5},
		{ReorderProb: math.NaN()},
	}
	for _, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("%+v: invalid probabilities accepted", a)
		}
	}
}

// oneEdgeSent builds a sent matrix for Ring(2) with one message from
// vertex 1 to vertex 0.
func oneEdgeSent(msg any) []map[int]any {
	return []map[int]any{{1: msg}, {}}
}

// neighborLists returns g's sorted neighbor lists, as run hands them to
// the fault layer.
func neighborLists(g *Graph) [][]int {
	nbrs := make([][]int, g.N)
	for v := range nbrs {
		nbrs[v] = g.Neighbors(v)
	}
	return nbrs
}

// deliverRing2 runs one round of f (built over Ring(2)) and returns the
// mailboxes it fills.
func deliverRing2(f *netFaults, sent []map[int]any) []map[int]any {
	out := []map[int]any{{}, {}}
	f.deliver(sent, out)
	return out
}

func TestNetFaultsLoss(t *testing.T) {
	reg := stats.New()
	f := newNetFaults(neighborLists(Ring(2)), &NetAdversary{Seed: 1, LossProb: 1, Stats: reg})
	out := deliverRing2(f, oneEdgeSent("m"))
	if len(out[0]) != 0 {
		t.Fatalf("loss=1 delivered %v", out[0])
	}
	// The message was destroyed, not queued: a later fault-free round has
	// nothing to deliver and draws no fault.
	out = deliverRing2(f, []map[int]any{{}, {}})
	if len(out[0]) != 0 {
		t.Fatalf("destroyed message re-delivered: %v", out[0])
	}
	if got := reg.Snapshot().Counter(MetricAdversaryEvents); got != 1 {
		t.Errorf("loss events = %d, want 1", got)
	}
}

func TestNetFaultsDelayPreservesMessages(t *testing.T) {
	reg := stats.New()
	f := newNetFaults(neighborLists(Ring(2)), &NetAdversary{Seed: 1, DelayProb: 1, Stats: reg})
	for round := 0; round < 3; round++ {
		var sent []map[int]any
		if round == 0 {
			sent = oneEdgeSent("m")
		} else {
			sent = []map[int]any{{}, {}}
		}
		if out := deliverRing2(f, sent); len(out[0]) != 0 {
			t.Fatalf("round %d: delay=1 delivered %v", round, out[0])
		}
	}
	if got := len(f.queues[0][0]); got != 1 {
		t.Fatalf("delayed queue holds %d messages, want 1 (delay never destroys)", got)
	}
	if got := reg.Snapshot().Counter(MetricAdversaryEvents); got != 3 {
		t.Errorf("delay events = %d, want one per withheld round", got)
	}
}

func TestNetFaultsReorderDeliversNewest(t *testing.T) {
	f := newNetFaults(neighborLists(Ring(2)), &NetAdversary{Seed: 1, ReorderProb: 1})
	f.queues[0][0] = []any{"old", "new"}
	out := deliverRing2(f, []map[int]any{{}, {}})
	if out[0][1] != "new" {
		t.Fatalf("reorder=1 delivered %v, want the newest", out[0][1])
	}
	if len(f.queues[0][0]) != 1 || f.queues[0][0][0] != "old" {
		t.Fatalf("queue after reorder = %v, want [old]", f.queues[0][0])
	}
	// A single-message queue has nothing to overtake: delivered in order.
	out = deliverRing2(f, []map[int]any{{}, {}})
	if out[0][1] != "old" {
		t.Fatalf("singleton queue delivered %v, want old", out[0][1])
	}
}

// TestNetFaultsDeterministic: the fault stream is a pure function of the
// seed — two adversaries with the same seed transform identical send
// sequences identically.
func TestNetFaultsDeterministic(t *testing.T) {
	mk := func() *netFaults {
		return newNetFaults(neighborLists(Complete(3)), &NetAdversary{Seed: 42, LossProb: 0.3, DelayProb: 0.3, ReorderProb: 0.3})
	}
	a, b := mk(), mk()
	for round := 0; round < 50; round++ {
		sent := make([]map[int]any, 3)
		for to := range sent {
			sent[to] = map[int]any{}
			for from := range sent {
				if from != to {
					sent[to][from] = [2]int{from, round}
				}
			}
		}
		outA := []map[int]any{{}, {}, {}}
		outB := []map[int]any{{}, {}, {}}
		a.deliver(sent, outA)
		b.deliver(sent, outB)
		if !reflect.DeepEqual(outA, outB) {
			t.Fatalf("round %d: same seed diverged:\n%v\n%v", round, outA, outB)
		}
	}
}

// flood is a trivial protocol: send the round number to every neighbor
// for k rounds, then halt. It tolerates missing messages, so it runs on
// the raw adversarial substrate without a synchronizer. got logs what it
// receives in each round.
type flood struct {
	k   int
	got []map[int]any
}

func (f *flood) Step(node Node, recv map[int]any) (map[int]any, bool) {
	f.got = append(f.got, maps.Clone(recv))
	send := map[int]any{}
	for _, nb := range node.Neighbors {
		send[nb] = node.Round
	}
	return send, node.Round >= f.k-1
}

// TestRunNilAndZeroAdversary: a nil adversary is the reliable Run, which
// delivers every round's sends in the next round, and a zero-probability
// adversary delivers exactly the same messages, round by round.
func TestRunNilAndZeroAdversary(t *testing.T) {
	g := Complete(4)
	run := func(adv *NetAdversary) []*flood {
		fs := make([]*flood, g.N)
		ps := make([]Proto, g.N)
		for v := range ps {
			fs[v] = &flood{k: 5}
			ps[v] = fs[v]
		}
		res, err := Run(g, ps, 100, adv)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != 5 {
			t.Fatalf("adversary %+v: %d rounds, want 5", adv, res.Rounds)
		}
		return fs
	}
	ref := run(nil)
	for v, f := range ref {
		for r, recv := range f.got {
			want := map[int]any{}
			for _, nb := range g.Neighbors(v) {
				if r > 0 {
					want[nb] = r - 1
				}
			}
			if !reflect.DeepEqual(recv, want) {
				t.Errorf("nil adversary: vertex %d round %d received %v, want %v", v, r, recv, want)
			}
		}
	}
	for v, f := range run(&NetAdversary{Seed: 9}) {
		if !reflect.DeepEqual(f.got, ref[v].got) {
			t.Errorf("zero adversary: vertex %d received %v, want %v", v, f.got, ref[v].got)
		}
	}
}

func TestRunRejectsInvalidAdversary(t *testing.T) {
	g := Ring(3)
	ps := []Proto{&flood{k: 1}, &flood{k: 1}, &flood{k: 1}}
	if _, err := Run(g, ps, 10, &NetAdversary{LossProb: 2}); err == nil {
		t.Fatal("invalid adversary accepted")
	}
}

// TestSynchronizeRepairsLoss: a protocol that panics on a missing message
// (strict lockstep, like Cole-Vishkin) survives heavy faults when wrapped
// with Synchronize, and the execution is deterministic per seed.
func TestSynchronizeRepairsLoss(t *testing.T) {
	g := Ring(5)
	adv := func() *NetAdversary {
		return &NetAdversary{Seed: 13, LossProb: 0.3, DelayProb: 0.2, ReorderProb: 0.2}
	}
	mk := func() ([]Proto, []int) {
		heard := make([]int, g.N)
		ps := make([]Proto, g.N)
		for v := range ps {
			ps[v] = &strictCounter{k: 4, heard: &heard[v]}
		}
		return ps, heard
	}

	ps, heard := mk()
	res, err := Run(g, Synchronize(ps, 8), 5000, adv())
	if err != nil {
		t.Fatal(err)
	}
	for v, h := range heard {
		// 4 inner rounds, 2 neighbors, messages from rounds 0..2 arrive in
		// rounds 1..3: every strict message must have been repaired.
		if h != 6 {
			t.Errorf("vertex %d heard %d messages, want 6", v, h)
		}
	}

	ps2, _ := mk()
	res2, err := Run(g, Synchronize(ps2, 8), 5000, adv())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rounds != res.Rounds {
		t.Errorf("same seed: %d rounds vs %d — adversarial executions must be deterministic", res2.Rounds, res.Rounds)
	}
}

// strictCounter requires, after round 0, a message from every neighbor
// each round (panicking otherwise, like cvProto) and counts them.
type strictCounter struct {
	k     int
	heard *int
}

func (s *strictCounter) Step(node Node, recv map[int]any) (map[int]any, bool) {
	if node.Round > 0 {
		for _, nb := range node.Neighbors {
			if _, ok := recv[nb]; !ok {
				panic("strictCounter: missing neighbor message")
			}
			*s.heard++
		}
	}
	send := map[int]any{}
	for _, nb := range node.Neighbors {
		send[nb] = node.Round
	}
	return send, node.Round >= s.k-1
}
