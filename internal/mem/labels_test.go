package mem

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gsb"
)

// TestLabelsFor: every object of a name shares one label set, spelled
// "<name>.<kind>" exactly as the independence relation parses it, and a
// hit on the table allocates nothing.
func TestLabelsFor(t *testing.T) {
	l := labelsFor("KS")
	if l != labelsFor("KS") {
		t.Error("two lookups of one name built two label sets")
	}
	for got, want := range map[string]string{
		l.name: "KS", l.read: "KS.read", l.write: "KS.write", l.writeStart: "KS.write-start",
		l.writeCommit: "KS.write-commit", l.snapshot: "KS.snapshot", l.tas: "KS.tas",
		l.fetchinc: "KS.fetchinc", l.invoke: "KS.invoke", l.ktas: "KS.ktas",
		l.kleader: "KS.kleader", l.propose: "KS.propose",
	} {
		if got != want {
			t.Errorf("label %q, want %q", got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { labelsFor("KS") }); allocs != 0 {
		t.Errorf("a label table hit allocates %.0f times, want 0", allocs)
	}
}

// TestCappedMapEvicts: past its cap the memo evicts other entries rather
// than growing or refusing the new key.
func TestCappedMapEvicts(t *testing.T) {
	c := cappedMap{max: 4}
	for i := 0; i < 10; i++ {
		k := fmt.Sprint(i)
		if v := c.store(k, i); v != i {
			t.Fatalf("store(%q) = %v, want %d", k, v, i)
		}
		if _, ok := c.m.Load(k); !ok {
			t.Fatalf("key %q evicted by its own insert", k)
		}
	}
	if n := c.count.Load(); n > 4 {
		t.Errorf("count %d after 10 inserts, want at most the cap 4", n)
	}
	if v := c.store("9", 99); v != 9 {
		t.Errorf("store of an existing key returned %v, want the held 9", v)
	}
}

// TestDrawKeyDistinguishesSpecs: symmetric specs key by their parameters,
// asymmetric ones by their rendering, and the draw is a function of the
// key alone.
func TestDrawKeyDistinguishesSpecs(t *testing.T) {
	sym := gsb.NewSym(4, 2, 1, 3)
	keys := []boxDrawKey{drawKey(sym, 1), drawKey(sym, 2), drawKey(gsb.NewSym(4, 2, 0, 3), 1), drawKey(gsb.NewAsym(4, []int{1, 0}, []int{3, 3}), 1)}
	for i := range keys {
		for j := range i {
			if keys[i] == keys[j] {
				t.Errorf("keys %d and %d collide: %+v", i, j, keys[i])
			}
		}
	}
	if drawKey(gsb.NewAsym(4, []int{1, 1}, []int{3, 3}), 1) != drawKey(sym, 1) {
		t.Error("NewAsym with symmetric bounds keys differently from the same NewSym spec")
	}
	a, b := drawAssignment(sym, 7), drawAssignment(gsb.NewSym(4, 2, 1, 3), 7)
	if !slices.Equal(a, b) {
		t.Errorf("equal specs drew %v and %v", a, b)
	}
}
