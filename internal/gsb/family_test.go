package gsb

import (
	"fmt"
	"testing"
)

func TestFamilyTable1Rows(t *testing.T) {
	// Family(6,3) must produce all 15 feasible <6,3,l,u> specs with u <= 6
	// in Table 1 order (the paper's table lists 14, omitting the feasible
	// <6,3,2,6>; see README.md, "Paper versus measured").
	want := []string{
		"<6,3,0,6>-GSB", "<6,3,1,6>-GSB", "<6,3,2,6>-GSB",
		"<6,3,0,5>-GSB", "<6,3,1,5>-GSB", "<6,3,2,5>-GSB",
		"<6,3,0,4>-GSB", "<6,3,1,4>-GSB", "<6,3,2,4>-GSB",
		"<6,3,0,3>-GSB", "<6,3,1,3>-GSB", "<6,3,2,3>-GSB",
		"<6,3,0,2>-GSB", "<6,3,1,2>-GSB", "<6,3,2,2>-GSB",
	}
	got := Family(6, 3)
	if len(got) != len(want) {
		t.Fatalf("Family(6,3) has %d members, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].String() != want[i] {
			t.Errorf("Family(6,3)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFamilyAllFeasible(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for m := 1; m <= 5; m++ {
			members := map[string]bool{}
			for _, s := range Family(n, m) {
				if !s.Feasible() {
					t.Fatalf("Family(%d,%d) contains infeasible %v", n, m, s)
				}
				members[s.String()] = true
			}
			// Completeness: every feasible (l,u) pair with u <= n appears.
			for l := 0; l <= n; l++ {
				for u := l; u <= n; u++ {
					if l == 0 && u == 0 {
						continue
					}
					s := NewSym(n, m, l, u)
					if s.Feasible() && !members[s.String()] {
						t.Fatalf("Family(%d,%d) missing feasible %v", n, m, s)
					}
				}
			}
		}
	}
}

func TestFamilyWithMaxU(t *testing.T) {
	got := Family(6, 3, WithMaxU(3))
	want := []string{
		"<6,3,0,3>-GSB", "<6,3,1,3>-GSB", "<6,3,2,3>-GSB",
		"<6,3,0,2>-GSB", "<6,3,1,2>-GSB", "<6,3,2,2>-GSB",
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i].String() != want[i] {
			t.Errorf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSynonymClassesTable1(t *testing.T) {
	// For n=6, m=3 there are 7 distinct tasks (Table 1 / Figure 1).
	classes := SynonymClasses(Family(6, 3))
	if len(classes) != 7 {
		t.Fatalf("got %d synonym classes, want 7", len(classes))
	}
	// The {[2,2,2]} class has 7 members (incl. the omitted <6,3,2,6>).
	var biggest int
	for _, c := range classes {
		if len(c) > biggest {
			biggest = len(c)
		}
		// All members of a class are mutual synonyms.
		for i := range c {
			for j := range c {
				if !c[i].Synonym(c[j]) {
					t.Fatalf("class members %v and %v not synonyms", c[i], c[j])
				}
			}
		}
	}
	if biggest != 7 {
		t.Errorf("largest synonym class has %d members, want 7", biggest)
	}
}

func TestCanonicalFamilyFigure1(t *testing.T) {
	// Figure 1: exactly seven canonical <6,3,-,-> tasks.
	want := []string{
		"<6,3,0,6>-GSB", "<6,3,0,5>-GSB", "<6,3,0,4>-GSB",
		"<6,3,1,4>-GSB", "<6,3,0,3>-GSB", // both have 3-element kernels
		"<6,3,1,3>-GSB", "<6,3,2,2>-GSB",
	}
	got := CanonicalFamily(6, 3)
	if len(got) != len(want) {
		t.Fatalf("CanonicalFamily(6,3) = %v, want 7 members", got)
	}
	for i := range want {
		if got[i].String() != want[i] {
			t.Errorf("CanonicalFamily[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	for _, s := range got {
		if !s.IsCanonical() {
			t.Errorf("%v in CanonicalFamily but not canonical", s)
		}
	}
}

func TestHasseFigure1(t *testing.T) {
	// Figure 1's edges ("A -> B" means S(B) ⊂ S(A)):
	//   <6,3,0,6> -> <6,3,0,5> -> <6,3,0,4>,
	//   <6,3,0,4> -> <6,3,1,4> and <6,3,0,4> -> <6,3,0,3>,
	//   <6,3,1,4> -> <6,3,1,3>, <6,3,0,3> -> <6,3,1,3>,
	//   <6,3,1,3> -> <6,3,2,2>.
	want := map[string]bool{
		"<6,3,0,6>-GSB-><6,3,0,5>-GSB": true,
		"<6,3,0,5>-GSB-><6,3,0,4>-GSB": true,
		"<6,3,0,4>-GSB-><6,3,1,4>-GSB": true,
		"<6,3,0,4>-GSB-><6,3,0,3>-GSB": true,
		"<6,3,1,4>-GSB-><6,3,1,3>-GSB": true,
		"<6,3,0,3>-GSB-><6,3,1,3>-GSB": true,
		"<6,3,1,3>-GSB-><6,3,2,2>-GSB": true,
	}
	edges := Hasse(CanonicalFamily(6, 3))
	if len(edges) != len(want) {
		t.Fatalf("got %d Hasse edges, want %d: %v", len(edges), len(want), edges)
	}
	for _, e := range edges {
		key := e.From.String() + "->" + e.To.String()
		if !want[key] {
			t.Errorf("unexpected Hasse edge %s", key)
		}
	}
}

func TestFigure1Incomparability(t *testing.T) {
	// Section 4.1: <6,3,1,4> and <6,3,0,3> are incomparable.
	a := NewSym(6, 3, 1, 4)
	b := NewSym(6, 3, 0, 3)
	if a.Contains(b) || b.Contains(a) {
		t.Error("<6,3,1,4> and <6,3,0,3> should be incomparable")
	}
}

func TestHasseIsTransitiveReduction(t *testing.T) {
	// Property: for every pair (i, j) with strict containment, there must
	// be a directed path in the Hasse diagram; and no edge is implied by
	// two others.
	for n := 4; n <= 8; n++ {
		for m := 2; m <= 3; m++ {
			reps := CanonicalFamily(n, m)
			edges := Hasse(reps)
			adj := map[string][]string{}
			for _, e := range edges {
				adj[e.From.String()] = append(adj[e.From.String()], e.To.String())
			}
			var reachable func(from, to string, seen map[string]bool) bool
			reachable = func(from, to string, seen map[string]bool) bool {
				if from == to {
					return true
				}
				if seen[from] {
					return false
				}
				seen[from] = true
				for _, nxt := range adj[from] {
					if reachable(nxt, to, seen) {
						return true
					}
				}
				return false
			}
			for i := range reps {
				for j := range reps {
					if i == j {
						continue
					}
					want := reps[i].StrictlyContains(reps[j])
					got := reachable(reps[i].String(), reps[j].String(), map[string]bool{})
					if want != got {
						t.Fatalf("n=%d m=%d: reachability(%v -> %v) = %v, want %v",
							n, m, reps[i], reps[j], got, want)
					}
				}
			}
		}
	}
}

func TestKernelVectorSetsDoNotAlwaysFormTasks(t *testing.T) {
	// Section 4.1 remark: the set {[5,1,0],[4,2,1]} is not the kernel set
	// of any <6,3,l,u>-GSB task.
	target := map[string]bool{"5,1,0": true, "4,2,1": true}
	for _, s := range Family(6, 3) {
		ks := s.KernelSet()
		if len(ks) != len(target) {
			continue
		}
		all := true
		for _, k := range ks {
			if !target[k.Key()] {
				all = false
				break
			}
		}
		if all {
			t.Fatalf("%v has kernel set {[5,1,0],[4,2,1]}, contradicting the paper's remark", s)
		}
	}
}

func ExampleCanonicalFamily() {
	for _, s := range CanonicalFamily(6, 3) {
		fmt.Println(s)
	}
	// Output:
	// <6,3,0,6>-GSB
	// <6,3,0,5>-GSB
	// <6,3,0,4>-GSB
	// <6,3,1,4>-GSB
	// <6,3,0,3>-GSB
	// <6,3,1,3>-GSB
	// <6,3,2,2>-GSB
}
