package query

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRangeBasics(t *testing.T) {
	if full := (Range{0, 1}); !full.Valid() || full.Width() != 1 {
		t.Error("the whole domain is not a valid range of width 1")
	}
	bad := []Range{{0.5, 0.5}, {0.7, 0.2}, {-0.1, 0.5}, {0.5, 1.1}}
	for _, r := range bad {
		if r.Valid() {
			t.Errorf("range %+v reported valid", r)
		}
	}
	a := Range{0.2, 0.8}
	if !a.Contains(Range{0.3, 0.7}) || !a.Contains(a) {
		t.Error("Contains too strict")
	}
	if a.Contains(Range{0.1, 0.5}) || a.Contains(Range{0.5, 0.9}) {
		t.Error("Contains too lax")
	}
	inter, ok := a.Intersect(Range{0.5, 0.9})
	if !ok || inter != (Range{0.5, 0.8}) {
		t.Errorf("Intersect = %+v,%v", inter, ok)
	}
	if _, ok := a.Intersect(Range{0.8, 0.9}); ok {
		t.Error("disjoint ranges intersect")
	}
}

func TestNewPredSetNormalization(t *testing.T) {
	ps, err := NewPredSet(
		Pred{Stream: 1, Attr: "x", Range: Range{0.0, 0.6}},
		Pred{Stream: 1, Attr: "x", Range: Range{0.4, 1.0}},
		Pred{Stream: 2, Attr: "y", Range: Range{0.1, 0.3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 2 {
		t.Fatalf("Len = %d", ps.Len())
	}
	// The two x-constraints intersect to [0.4, 0.6).
	if got := ps.StreamSelectivity(1); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("sel(1) = %g, want 0.2", got)
	}
	if _, err := NewPredSet(
		Pred{Stream: 1, Attr: "x", Range: Range{0, 0.3}},
		Pred{Stream: 1, Attr: "x", Range: Range{0.5, 1}},
	); err == nil {
		t.Error("contradictory predicates accepted")
	}
	if _, err := NewPredSet(Pred{Stream: 1, Attr: "x", Range: Range{0.9, 0.1}}); err == nil {
		t.Error("invalid range accepted")
	}
}

func TestPredSetContains(t *testing.T) {
	weak := MustPredSet(Pred{Stream: 1, Attr: "x", Range: Range{0.2, 0.9}})
	strong := MustPredSet(
		Pred{Stream: 1, Attr: "x", Range: Range{0.3, 0.5}},
		Pred{Stream: 2, Attr: "y", Range: Range{0, 0.1}},
	)
	if !weak.Contains(strong) {
		t.Error("weak should contain strong")
	}
	if strong.Contains(weak) {
		t.Error("strong cannot contain weak")
	}
	empty := PredSet{}
	if !empty.Contains(strong) || !empty.Contains(empty) {
		t.Error("empty set contains everything")
	}
	if strong.Contains(empty) {
		t.Error("constrained set cannot contain the unconstrained one")
	}
	// Missing constraint on a required attribute breaks containment.
	other := MustPredSet(Pred{Stream: 3, Attr: "z", Range: Range{0, 0.5}})
	if other.Contains(strong) {
		t.Error("unrelated constraint cannot be implied")
	}
}

func TestPredSetRestrictAndSig(t *testing.T) {
	ps := MustPredSet(
		Pred{Stream: 1, Attr: "x", Range: Range{0, 0.5}},
		Pred{Stream: 2, Attr: "y", Range: Range{0.5, 1}},
	)
	r := ps.Restrict([]StreamID{1})
	if r.Len() != 1 || r.StreamSelectivity(1) != 0.5 || r.StreamSelectivity(2) != 1 {
		t.Errorf("Restrict wrong: %+v", r)
	}
	if (PredSet{}).Sig() != "" {
		t.Error("empty sig not empty")
	}
	sig := ps.Sig()
	if !strings.Contains(sig, "1.x") || !strings.Contains(sig, "2.y") {
		t.Errorf("sig = %q", sig)
	}
	// Canonical: independent construction order gives identical sigs.
	ps2 := MustPredSet(
		Pred{Stream: 2, Attr: "y", Range: Range{0.5, 1}},
		Pred{Stream: 1, Attr: "x", Range: Range{0, 0.5}},
	)
	if !ps.Equal(ps2) {
		t.Errorf("order-dependent sig: %q vs %q", sig, ps2.Sig())
	}
}

func TestPredsCanonicalOrder(t *testing.T) {
	ps := MustPredSet(
		Pred{Stream: 2, Attr: "b", Range: Range{0, 0.5}},
		Pred{Stream: 1, Attr: "z", Range: Range{0, 0.5}},
		Pred{Stream: 1, Attr: "a", Range: Range{0, 0.5}},
	)
	out := ps.Preds()
	if len(out) != 3 || out[0].Stream != 1 || out[0].Attr != "a" ||
		out[1].Attr != "z" || out[2].Stream != 2 {
		t.Errorf("order = %+v", out)
	}
}

func TestQueryPredSignatureAndRates(t *testing.T) {
	cat := NewCatalog(0.1)
	a := cat.Add("A", 100, 0)
	b := cat.Add("B", 50, 1)
	preds := MustPredSet(Pred{Stream: a, Attr: "dep", Range: Range{0, 0.25}})
	q, err := NewQueryPred(0, []StreamID{a, b}, 5, preds)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := NewQuery(1, []StreamID{a, b}, 5)
	if q.SigOf(q.All()) == plain.SigOf(plain.All()) {
		t.Error("predicates not in signature")
	}
	if q.SigOf(0b10) != plain.SigOf(0b10) {
		t.Error("unconstrained sub-signature changed")
	}
	rt := BuildRates(cat, q)
	if got := rt.Rate(0b01); math.Abs(got-25) > 1e-9 {
		t.Errorf("filtered rate = %g, want 25", got)
	}
	if got := rt.Rate(0b11); math.Abs(got-25*50*0.1) > 1e-9 {
		t.Errorf("join rate = %g", got)
	}
	// Foreign-stream predicate rejected.
	foreign := MustPredSet(Pred{Stream: 99, Attr: "x", Range: Range{0, 0.5}})
	if _, err := NewQueryPred(2, []StreamID{a, b}, 5, foreign); err == nil {
		t.Error("foreign predicate accepted")
	}
}

// Property: containment is reflexive and transitive, and intersection of
// two valid constraints on the same attribute is contained in both.
func TestContainmentProperties(t *testing.T) {
	gen := func(rng *rand.Rand) PredSet {
		var preds []Pred
		n := rng.Intn(4)
		for i := 0; i < n; i++ {
			lo := rng.Float64() * 0.8
			hi := lo + 0.05 + rng.Float64()*(1-lo-0.05)
			if hi > 1 {
				hi = 1
			}
			preds = append(preds, Pred{
				Stream: StreamID(rng.Intn(3)),
				Attr:   []string{"x", "y"}[rng.Intn(2)],
				Range:  Range{lo, hi},
			})
		}
		ps, err := NewPredSet(preds...)
		if err != nil {
			return PredSet{}
		}
		return ps
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := gen(rng), gen(rng)
		if !a.Contains(a) {
			return false
		}
		// Tighten a by adding b's constraints where compatible: the result
		// must be contained in a.
		merged, err := NewPredSet(append(a.Preds(), b.Preds()...)...)
		if err != nil {
			return true // contradictory tightening; nothing to check
		}
		return a.Contains(merged) && b.Contains(merged)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
