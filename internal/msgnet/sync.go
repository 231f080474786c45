package msgnet

// This file is the synchronizer: a per-vertex wrapper that simulates the
// reliable lockstep substrate on top of an adversarial one, so protocols
// written for the reliable Run (which assume every message arrives
// exactly one round after it was sent — cvProto panics otherwise) also
// execute under a NetAdversary. Each wrapper tracks a simulated inner
// round, buffers the inner protocol's sends, and exchanges envelopes
// carrying (a) every not-yet-acknowledged inner payload, (b) a cumulative
// ack of the rounds it has fully received, and (c) progress/halt flags.
// Loss is repaired by retransmitting the unacked window every real round;
// delay and reorder are absorbed by the per-round buffers. An inner round
// executes only when the sends of every neighbor's previous inner round
// are known (either received, or implied by the neighbor having halted
// earlier), so the inner protocol observes exactly the reliable-substrate
// semantics — neighbors' simulated clocks may drift, but each vertex's
// view is indistinguishable from a fault-free execution.
//
// Termination is probabilistic under message loss: a wrapper halts only
// after its inner protocol halted, every neighbor holds all of its
// payloads, and a grace period of further envelope rounds has passed to
// settle the neighbors' final acknowledgments. With a fixed adversary
// seed the execution is deterministic, so a passing (seed, grace,
// maxRounds) configuration always passes.

// syncPayload is one inner-round send inside an envelope: Has is false
// when the inner protocol sent nothing to this neighbor that round
// (silence is information too — the receiver must know the round is
// complete to advance past it).
type syncPayload struct {
	Has bool
	Msg any
}

// syncEnv is the synchronizer's wire format: the sender's progress, its
// cumulative ack of the receiver's rounds, and the receiver-bound inner
// payloads for rounds [From, From+len(Msgs)).
type syncEnv struct {
	Exec   int // inner rounds the sender has executed
	Halted bool
	Ack    int // sender knows the receiver's inner sends for all rounds < Ack
	From   int
	Msgs   []syncPayload
}

// nbState is what a wrapper knows about one neighbor.
type nbState struct {
	exec   int  // inner rounds the neighbor reported executing
	halted bool // neighbor's inner protocol halted (after exec rounds)
	ack    int  // neighbor's cumulative ack of our sends
	known  []bool
	msgs   []syncPayload
	prefix int // contiguous-known prefix: rounds < prefix all recorded
}

func (st *nbState) record(s int, p syncPayload) {
	for len(st.known) <= s {
		st.known = append(st.known, false)
		st.msgs = append(st.msgs, syncPayload{})
	}
	st.known[s] = true
	st.msgs[s] = p
}

// knows reports whether the neighbor's inner round-s send is settled:
// recorded, or implied absent because the neighbor halted before s.
func (st *nbState) knows(s int) bool {
	if s < len(st.known) && st.known[s] {
		return true
	}
	return st.halted && st.exec <= s
}

// ackRound returns (and caches) the contiguous-known prefix.
func (st *nbState) ackRound() int {
	for st.prefix < len(st.known) && st.known[st.prefix] {
		st.prefix++
	}
	return st.prefix
}

// syncProto wraps one inner protocol (see the file comment).
type syncProto struct {
	inner Proto
	grace int

	sim       int // inner rounds executed
	innerDone bool
	sent      []map[int]any // sent[s]: the inner round-s sends, kept for retransmission
	nb        map[int]*nbState
	settled   int // consecutive rounds the halt condition has held
}

// Synchronize wraps each protocol for execution under a message
// adversary (Run with a non-nil NetAdversary). grace is the number of
// extra envelope rounds a wrapper lingers after everything is settled, so
// neighbors can collect its final acknowledgments; a handful suffices for
// moderate fault rates. The wrapped protocols simulate more slowly (one
// inner round needs at least one fault-free exchange), so callers should
// scale maxRounds accordingly.
func Synchronize(protos []Proto, grace int) []Proto {
	if grace < 0 {
		grace = 0
	}
	out := make([]Proto, len(protos))
	for i, p := range protos {
		out[i] = &syncProto{inner: p, grace: grace}
	}
	return out
}

func (w *syncProto) Step(node Node, recv map[int]any) (map[int]any, bool) {
	if w.nb == nil {
		w.nb = make(map[int]*nbState, len(node.Neighbors))
		for _, n := range node.Neighbors {
			w.nb[n] = &nbState{}
		}
	}
	// Absorb envelopes in sorted neighbor order (never map order), so the
	// wrapper's behavior is a pure function of what arrived.
	for _, from := range node.Neighbors {
		raw, ok := recv[from]
		if !ok {
			continue
		}
		env := raw.(syncEnv)
		st := w.nb[from]
		if env.Exec > st.exec {
			st.exec = env.Exec
		}
		if env.Halted {
			st.halted = true
		}
		if env.Ack > st.ack {
			st.ack = env.Ack
		}
		for i, p := range env.Msgs {
			st.record(env.From+i, p)
		}
	}

	// Advance the inner protocol as far as the received rounds allow
	// (possibly several inner rounds, when delayed envelopes arrive in a
	// burst; the unacked-window retransmission keeps skipped-over rounds
	// recoverable by slower neighbors).
	out := make(map[int]any, len(node.Neighbors))
	for !w.innerDone && w.canExec(node) {
		var innerRecv map[int]any
		if w.sim > 0 {
			innerRecv = map[int]any{}
			for _, n := range node.Neighbors {
				st := w.nb[n]
				if s := w.sim - 1; s < len(st.known) && st.known[s] && st.msgs[s].Has {
					innerRecv[n] = st.msgs[s].Msg
				}
			}
		}
		send, done := w.inner.Step(Node{ID: node.ID, Neighbors: node.Neighbors, Round: w.sim}, innerRecv)
		// A send to a non-neighbor has no envelope to ride in: forward it
		// as is, so Run rejects it exactly as on the reliable substrate.
		for to, msg := range send {
			if w.nb[to] == nil {
				out[to] = msg
			}
		}
		w.sent = append(w.sent, send)
		w.sim++
		if done {
			w.innerDone = true
		}
	}

	// Envelope per neighbor: the full unacked window of inner payloads.
	for _, n := range node.Neighbors {
		st := w.nb[n]
		from := st.ack
		if from > w.sim {
			from = w.sim
		}
		var msgs []syncPayload
		for s := from; s < w.sim; s++ {
			m, has := w.sent[s][n]
			msgs = append(msgs, syncPayload{Has: has, Msg: m})
		}
		out[n] = syncEnv{Exec: w.sim, Halted: w.innerDone, Ack: st.ackRound(), From: from, Msgs: msgs}
	}

	// Halt once the inner protocol is done, every neighbor holds all our
	// payloads, we hold all theirs, and the grace period has run down
	// (the linger rounds keep broadcasting the final acks above).
	if w.innerDone && w.allSettled(node) {
		w.settled++
		if w.settled > w.grace {
			return out, true
		}
	}
	return out, false
}

// canExec reports whether inner round w.sim can execute: every
// neighbor's round w.sim-1 send is settled (round 0 needs nothing).
func (w *syncProto) canExec(node Node) bool {
	if w.sim == 0 {
		return true
	}
	for _, n := range node.Neighbors {
		if !w.nb[n].knows(w.sim - 1) {
			return false
		}
	}
	return true
}

func (w *syncProto) allSettled(node Node) bool {
	for _, n := range node.Neighbors {
		st := w.nb[n]
		if !st.halted || st.ack < w.sim || st.ackRound() < st.exec {
			return false
		}
	}
	return true
}
