package msgnet

import (
	"fmt"
	"math/rand"

	"repro/internal/runrand"
	"repro/internal/stats"
)

// This file is the message adversary: a seeded fault injector between the
// senders and the mailboxes of Run. Faults are drawn once per directed
// edge per round, single-threaded, in ascending (to, from) order, so an
// adversarial execution is a pure function of (graph, protocols, seed) —
// the same determinism contract the shared-memory engine's crash
// adversaries obey (docs/models.md).

// MetricAdversaryEvents is the adversary-events counter name. It is the
// same metric the shared-memory crash adversaries publish
// (sched.MetricAdversaryEvents; a test pins the equality), so one counter
// totals all adversary-injected faults regardless of substrate.
const MetricAdversaryEvents = "gsb_adversary_events_total"

// NetAdversary drops, delays and reorders messages between synchronous
// rounds. Each directed edge has a FIFO queue of undelivered messages;
// once per round per non-empty queue the adversary draws, in order:
// with probability LossProb the oldest message is destroyed; otherwise
// with probability DelayProb nothing is delivered this round; otherwise
// one message is delivered — the newest instead of the oldest with
// probability ReorderProb (when the queue holds more than one).
// Delay and reorder preserve messages; only loss destroys them.
//
// The zero value injects no faults. Protocols written for the fault-free
// substrate generally assume every message arrives on time (cvProto
// panics otherwise); wrap them with Synchronize to run them under an
// adversary.
type NetAdversary struct {
	// Seed seeds the fault stream; executions are reproducible per seed.
	Seed int64
	// LossProb, DelayProb and ReorderProb are fault probabilities in
	// [0, 1]; Validate rejects anything else.
	LossProb    float64
	DelayProb   float64
	ReorderProb float64
	// Stats receives MetricAdversaryEvents increments (one per loss,
	// delay or reorder); nil publishes nowhere.
	Stats *stats.Registry
}

// Validate reports whether the fault probabilities are well-formed.
func (a *NetAdversary) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"loss", a.LossProb}, {"delay", a.DelayProb}, {"reorder", a.ReorderProb}} {
		if !(p.v >= 0 && p.v <= 1) { // negated to catch NaN
			return fmt.Errorf("msgnet: %s probability %v outside [0, 1]", p.name, p.v)
		}
	}
	return nil
}

// netFaults is the per-execution adversary state: one queue per directed
// edge and one seeded generator, applied single-threaded between rounds.
type netFaults struct {
	nbrs   [][]int   // nbrs[to]: sorted neighbor lists of the graph
	queues [][][]any // queues[to][i]: messages from nbrs[to][i] to to
	rng    *rand.Rand
	adv    *NetAdversary
	events *stats.Counter
}

func newNetFaults(nbrs [][]int, adv *NetAdversary) *netFaults {
	queues := make([][][]any, len(nbrs))
	for to := range queues {
		queues[to] = make([][]any, len(nbrs[to]))
	}
	return &netFaults{
		nbrs:   nbrs,
		queues: queues,
		rng:    runrand.New(adv.Seed),
		adv:    adv,
		events: adv.Stats.Counter(MetricAdversaryEvents,
			"Adversary-injected fault events: crashes (crash adversaries) and message drops/delays/reorders (message adversary)."),
	}
}

// deliver moves this round's sends through the fault queues into the
// mailboxes for the next round. sent[to] and out[to] map sender to
// message; out is cleared first. Iteration is by ascending (to, from)
// over the graph's edges — never map order — so the generator's draw
// sequence is deterministic.
func (f *netFaults) deliver(sent, out []map[int]any) {
	for to, froms := range f.nbrs {
		clear(out[to])
		for i, from := range froms {
			q := f.queues[to][i]
			if msg, ok := sent[to][from]; ok {
				q = append(q, msg)
			}
			if len(q) == 0 {
				continue
			}
			switch {
			case f.rng.Float64() < f.adv.LossProb:
				q = q[1:] // destroy the oldest
				f.events.Inc()
			case f.rng.Float64() < f.adv.DelayProb:
				f.events.Inc() // deliver nothing this round
			case len(q) > 1 && f.rng.Float64() < f.adv.ReorderProb:
				out[to][from] = q[len(q)-1] // newest overtakes
				q = q[:len(q)-1]
				f.events.Inc()
			default:
				out[to][from] = q[0]
				q = q[1:]
			}
			f.queues[to][i] = q
		}
	}
}
