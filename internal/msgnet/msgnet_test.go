package msgnet

import (
	"math/rand"
	"strings"
	"testing"
)

func TestGraphConstruction(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 1)
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Neighbors(1) = %v", got)
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Error("Degree misbehaves")
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
}

func TestGraphValidation(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
		want string
	}{
		{"self loop", func() { NewGraph(2).AddEdge(1, 1) }, "self-loop"},
		{"out of range", func() { NewGraph(2).AddEdge(0, 5) }, "outside"},
		{"duplicate", func() {
			g := NewGraph(3)
			g.AddEdge(0, 1)
			g.AddEdge(0, 1)
		}, "duplicate"},
		{"n zero", func() { NewGraph(0) }, "n >= 1"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				rec := recover()
				if rec == nil || !strings.Contains(rec.(string), tc.want) {
					t.Fatalf("recover = %v, want %q", rec, tc.want)
				}
			}()
			tc.fn()
		})
	}
}

func TestRing(t *testing.T) {
	for n := 1; n <= 6; n++ {
		g := Ring(n)
		switch {
		case n == 1:
			if g.MaxDegree() != 0 {
				t.Error("Ring(1) should have no edges")
			}
		case n == 2:
			if g.Degree(0) != 1 || g.Degree(1) != 1 {
				t.Error("Ring(2) should be a single edge")
			}
		default:
			for v := 0; v < n; v++ {
				if g.Degree(v) != 2 {
					t.Errorf("Ring(%d): degree(%d) = %d", n, v, g.Degree(v))
				}
			}
		}
	}
}

func TestComplete(t *testing.T) {
	g := Complete(5)
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 4 {
			t.Errorf("K5 degree(%d) = %d", v, g.Degree(v))
		}
	}
}

func TestGNP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := GNP(20, 0.5, rng.Float64)
	edges := 0
	for v := 0; v < g.N; v++ {
		edges += g.Degree(v)
	}
	edges /= 2
	if edges < 50 || edges > 140 {
		t.Errorf("GNP(20, 0.5) has %d edges; suspicious", edges)
	}
	empty := GNP(10, 0, rng.Float64)
	if empty.MaxDegree() != 0 {
		t.Error("GNP(_, 0) should have no edges")
	}
}

// echoProto gathers the ids of neighbors for k rounds, then halts.
type echoProto struct {
	k     int
	heard map[int]bool
}

func (e *echoProto) Step(node Node, recv map[int]any) (map[int]any, bool) {
	for from := range recv {
		e.heard[from] = true
	}
	if node.Round >= e.k {
		return nil, true
	}
	out := map[int]any{}
	for _, nb := range node.Neighbors {
		out[nb] = node.ID
	}
	return out, false
}

func TestRunDeliversToAllNeighbors(t *testing.T) {
	g := Ring(5)
	protos := make([]Proto, g.N)
	heard := make([]map[int]bool, g.N)
	for v := range protos {
		heard[v] = map[int]bool{}
		protos[v] = &echoProto{k: 2, heard: heard[v]}
	}
	res, err := Run(g, protos, 100, nil)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if res.Rounds < 2 {
		t.Errorf("Rounds = %d, want >= 2", res.Rounds)
	}
	for v := 0; v < g.N; v++ {
		for _, nb := range g.Neighbors(v) {
			if !heard[v][nb] {
				t.Errorf("vertex %d never heard neighbor %d", v, nb)
			}
		}
		if len(heard[v]) != g.Degree(v) {
			t.Errorf("vertex %d heard non-neighbors: %v", v, heard[v])
		}
	}
}

func TestRunMaxRounds(t *testing.T) {
	g := Ring(3)
	protos := make([]Proto, g.N)
	for v := range protos {
		protos[v] = &echoProto{k: 1 << 30, heard: map[int]bool{}}
	}
	_, err := Run(g, protos, 5, nil)
	if err == nil || !strings.Contains(err.Error(), "still active") {
		t.Fatalf("err = %v, want still-active error", err)
	}
}

func TestRunProtoCountMismatch(t *testing.T) {
	g := Ring(3)
	_, err := Run(g, make([]Proto, 2), 5, nil)
	if err == nil {
		t.Fatal("expected error for wrong protocol count")
	}
}

// lateHaltProto halts at a round depending on its id, exercising partial
// activity.
type lateHaltProto struct{ until int }

func (l *lateHaltProto) Step(node Node, recv map[int]any) (map[int]any, bool) {
	if node.Round >= l.until {
		return nil, true
	}
	out := map[int]any{}
	for _, nb := range node.Neighbors {
		out[nb] = node.Round
	}
	return out, false
}

func TestRunStaggeredHalting(t *testing.T) {
	g := Complete(4)
	protos := make([]Proto, g.N)
	for v := range protos {
		protos[v] = &lateHaltProto{until: v + 1}
	}
	res, err := Run(g, protos, 100, nil)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	// The latest process halts at round 4, so rounds 0..4 execute.
	if res.Rounds != 5 {
		t.Errorf("Rounds = %d, want 5", res.Rounds)
	}
}

// strayProto has vertex 0 send to vertex 2 in round 0, then everyone
// halts; on Ring(5) vertex 2 is not a neighbor of 0.
type strayProto struct{ heard *bool }

func (s *strayProto) Step(node Node, recv map[int]any) (map[int]any, bool) {
	if _, ok := recv[0]; ok && node.ID == 2 {
		*s.heard = true
	}
	if node.ID == 0 && node.Round == 0 {
		return map[int]any{1: "ok", 2: "stray"}, false
	}
	return nil, node.Round >= 1
}

// TestRunRejectsSendToNonNeighbor: a send along an edge the graph does
// not have is an error in both substrates, with or without the
// synchronizer, never a delivery.
func TestRunRejectsSendToNonNeighbor(t *testing.T) {
	for _, c := range []struct {
		adv  *NetAdversary
		sync bool
	}{
		{nil, false},
		{&NetAdversary{Seed: 1}, false},
		{&NetAdversary{Seed: 1}, true},
		{&NetAdversary{Seed: 1, LossProb: 0.1}, true},
	} {
		g := Ring(5)
		heard := false
		protos := make([]Proto, g.N)
		for v := range protos {
			protos[v] = &strayProto{heard: &heard}
		}
		if c.sync {
			protos = Synchronize(protos, 2)
		}
		_, err := Run(g, protos, 10, c.adv)
		if err == nil || !strings.Contains(err.Error(), "process 0 sent to non-neighbor 2") {
			t.Errorf("adversary %v, synchronized %v: err = %v, want a non-neighbor error", c.adv, c.sync, err)
		}
		if heard {
			t.Errorf("adversary %v, synchronized %v: vertex 2 received a message over a non-edge", c.adv, c.sync)
		}
	}
}

type panicProto struct{}

func (panicProto) Step(node Node, recv map[int]any) (map[int]any, bool) {
	panic("panicProto: boom")
}

// TestRunStepPanicReachesCaller: a panic in Step propagates to Run's
// caller, who can recover it.
func TestRunStepPanicReachesCaller(t *testing.T) {
	defer func() {
		if rec := recover(); rec != "panicProto: boom" {
			t.Fatalf("recover = %v, want the Step panic", rec)
		}
	}()
	_, _ = Run(Ring(3), []Proto{panicProto{}, panicProto{}, panicProto{}}, 5, nil)
}
