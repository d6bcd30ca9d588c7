package query

import (
	"math"
	"testing"
)

// TestStreamSelectivityOneBitPattern: three range predicates on one
// stream multiply to different floats in different orders (the fixture
// proves it on its own widths), so a product taken in map order would
// wander between calls. A thousand calls must agree to the bit, on the
// product taken in attribute order, and allocate nothing.
func TestStreamSelectivityOneBitPattern(t *testing.T) {
	preds := []Pred{
		{Stream: 3, Attr: "alt", Range: Range{0.1, 0.8}},
		{Stream: 3, Attr: "lat", Range: Range{0.2, 0.5}},
		{Stream: 3, Attr: "lon", Range: Range{0, 0.1}},
		{Stream: 4, Attr: "alt", Range: Range{0, 0.5}},
	}
	a, b, c := preds[0].Range.Width(), preds[1].Range.Width(), preds[2].Range.Width()
	want := 1.0 * a * b * c
	distinct := map[uint64]bool{}
	for _, p := range []float64{a * b * c, a * c * b, b * c * a} {
		distinct[math.Float64bits(p)] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("fixture widths %g %g %g multiply order-independently; pick others", a, b, c)
	}
	for i := 0; i < 1000; i++ {
		// A fresh set each round: map iteration order varies per map and
		// per range statement.
		ps := MustPredSet(preds...)
		if got := ps.StreamSelectivity(3); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: selectivity %x, want %x (attribute order alt·lat·lon)",
				i, math.Float64bits(got), math.Float64bits(want))
		}
	}
	ps := MustPredSet(preds...)
	if got := ps.StreamSelectivity(4); got != 0.5 {
		t.Errorf("stream 4 selectivity %g, want 0.5", got)
	}
	if got := ps.StreamSelectivity(9); got != 1 {
		t.Errorf("unconstrained stream selectivity %g, want 1", got)
	}
	if n := testing.AllocsPerRun(100, func() { ps.StreamSelectivity(3) }); n != 0 {
		t.Errorf("StreamSelectivity allocates %g times per call, want 0", n)
	}
}
