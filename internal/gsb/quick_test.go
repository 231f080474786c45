package gsb

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/vecmath"
)

// randSpec draws a feasible symmetric spec with small parameters.
type randSpec struct {
	S Spec
}

// Generate implements quick.Generator.
func (randSpec) Generate(rng *rand.Rand, _ int) reflect.Value {
	for {
		n := 1 + rng.Intn(10)
		m := 1 + rng.Intn(6)
		l := rng.Intn(n/m + 1)
		maxU := n
		minU := max(l, vecmath.CeilDiv(n, m))
		if minU > maxU {
			continue
		}
		u := minU + rng.Intn(maxU-minU+1)
		return reflect.ValueOf(randSpec{S: NewSym(n, m, l, u)})
	}
}

func TestQuickCanonicalIsSynonym(t *testing.T) {
	f := func(r randSpec) bool {
		c := r.S.Canonical()
		return c.Synonym(r.S) && c.IsCanonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickKernelSetSortedAndBounded(t *testing.T) {
	f := func(r randSpec) bool {
		l, u := r.S.SymBounds()
		ks := r.S.KernelSet()
		for i, k := range ks {
			if !k.NonIncreasing() || k.Sum() != r.S.N() {
				return false
			}
			for _, x := range k {
				if x < l || x > u {
					return false
				}
			}
			if i > 0 && vecmath.CompareLex(ks[i-1], k) <= 0 {
				return false
			}
		}
		return len(ks) > 0 // feasible specs have non-empty kernel sets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickHardestContained(t *testing.T) {
	f := func(r randSpec) bool {
		return r.S.Contains(Hardest(r.S.N(), r.S.M()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickAnchoringFormulas(t *testing.T) {
	f := func(r randSpec) bool {
		return r.S.LAnchored() == r.S.LAnchoredFormula() &&
			r.S.UAnchored() == r.S.UAnchoredFormula()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickSynonymIsEquivalence(t *testing.T) {
	// Reflexive + symmetric on random pairs from the same family.
	f := func(r randSpec, seed int64) bool {
		family := Family(r.S.N(), r.S.M())
		rng := rand.New(rand.NewSource(seed))
		a := family[rng.Intn(len(family))]
		b := family[rng.Intn(len(family))]
		if !a.Synonym(a) {
			return false
		}
		return a.Synonym(b) == b.Synonym(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickContainmentPartialOrder(t *testing.T) {
	// Antisymmetry up to synonymy and transitivity on random triples.
	f := func(r randSpec, seed int64) bool {
		family := Family(r.S.N(), r.S.M())
		rng := rand.New(rand.NewSource(seed))
		a := family[rng.Intn(len(family))]
		b := family[rng.Intn(len(family))]
		c := family[rng.Intn(len(family))]
		if a.Contains(b) && b.Contains(a) && !a.Synonym(b) {
			return false
		}
		if a.Contains(b) && b.Contains(c) && !a.Contains(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickVerifyAcceptsKernelExpansion(t *testing.T) {
	// Expanding any kernel vector into an output vector must verify.
	f := func(r randSpec, seed int64) bool {
		ks := r.S.KernelSet()
		rng := rand.New(rand.NewSource(seed))
		k := ks[rng.Intn(len(ks))]
		out := make([]int, 0, r.S.N())
		for v, count := range k {
			for i := 0; i < count; i++ {
				out = append(out, v+1)
			}
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return r.S.Verify(out) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
