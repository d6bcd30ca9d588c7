package query

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// The map-based PredSet as it stood before the set became a sorted slice,
// copied verbatim but for the names (and MustPredSet, which nothing here
// calls): the oracle FuzzPredSet and TestPredSetMatchesMapReference hold
// the product PredSet to.

type refPredKey struct {
	stream StreamID
	attr   string
}

// refPredSet is a conjunction of range predicates, normalized to at most one
// range per (stream, attribute). The zero value is the empty conjunction
// (no constraints) and is ready to use.
type refPredSet struct {
	m map[refPredKey]Range
}

// newRefPredSet builds a normalized predicate set, intersecting constraints
// on the same attribute. It errors on invalid ranges or empty
// intersections (an always-false query).
func newRefPredSet(preds ...Pred) (refPredSet, error) {
	ps := refPredSet{m: map[refPredKey]Range{}}
	for _, p := range preds {
		if !p.Range.Valid() {
			return refPredSet{}, fmt.Errorf("query: invalid range [%g,%g) on %d.%s",
				p.Range.Lo, p.Range.Hi, p.Stream, p.Attr)
		}
		k := refPredKey{p.Stream, p.Attr}
		if ex, ok := ps.m[k]; ok {
			inter, ok := ex.Intersect(p.Range)
			if !ok {
				return refPredSet{}, fmt.Errorf("query: %w on %d.%s", ErrContradiction, p.Stream, p.Attr)
			}
			ps.m[k] = inter
			continue
		}
		ps.m[k] = p.Range
	}
	return ps, nil
}

// Empty reports whether the set has no constraints.
func (ps refPredSet) Empty() bool { return len(ps.m) == 0 }

// Len returns the number of constrained attributes.
func (ps refPredSet) Len() int { return len(ps.m) }

// Restrict returns the subset of constraints that touch the given streams
// (the zero set, without allocating, when none does).
func (ps refPredSet) Restrict(streams []StreamID) refPredSet {
	var out refPredSet
	for k, r := range ps.m {
		if !slices.Contains(streams, k.stream) {
			continue
		}
		if out.m == nil {
			out.m = map[refPredKey]Range{}
		}
		out.m[k] = r
	}
	return out
}

// Contains reports whether results computed under ps contain the results
// required under stricter: every constraint of ps must be implied by
// stricter's constraint on the same attribute. (An unconstrained
// attribute in ps is trivially implied.) When true, stricter's output can
// be produced from ps's output by filtering.
func (ps refPredSet) Contains(stricter refPredSet) bool {
	for k, weak := range ps.m {
		strong, ok := stricter.m[k]
		if !ok || !weak.Contains(strong) {
			return false
		}
	}
	return true
}

// StreamSelectivity returns the fraction of a stream's tuples passing the
// set's constraints on that stream (uniform value distributions, as the
// rest of the rate model assumes).
func (ps refPredSet) StreamSelectivity(s StreamID) float64 {
	on := make([]Pred, 0, 4) // stays on the stack
	for k, r := range ps.m {
		if k.stream == s {
			on = append(on, Pred{Attr: k.attr, Range: r})
		}
	}
	// In attribute order: map order would vary a 3-factor float product.
	slices.SortFunc(on, func(a, b Pred) int { return cmp.Compare(a.Attr, b.Attr) })
	sel := 1.0
	for _, p := range on {
		sel *= p.Range.Width()
	}
	return sel
}

// Sig returns the canonical signature fragment of the set: sorted
// "stream.attr:[lo,hi)" terms. The empty set yields "", so predicate-free
// signatures are unchanged.
func (ps refPredSet) Sig() string {
	if len(ps.m) == 0 {
		return ""
	}
	return string(ps.appendSig(nil, "", nil))
}

// appendSig appends lead and then the signature fragment of the
// constraints on the given streams (on every stream when streams is nil),
// or nothing at all when there is no such constraint. Restricting here is
// what lets a signature be built without materializing the restricted set.
func (ps refPredSet) appendSig(b []byte, lead string, streams []StreamID) []byte {
	var termBuf [4]string
	terms := termBuf[:0]
	var scratch [64]byte
	for k, r := range ps.m {
		if streams != nil && !slices.Contains(streams, k.stream) {
			continue
		}
		// "%d.%s:[%g,%g)" spelled out: fmt's %g is strconv's shortest 'g'.
		t := strconv.AppendInt(scratch[:0], int64(k.stream), 10)
		t = append(append(append(t, '.'), k.attr...), ":["...)
		t = strconv.AppendFloat(t, r.Lo, 'g', -1, 64)
		t = strconv.AppendFloat(append(t, ','), r.Hi, 'g', -1, 64)
		terms = append(terms, string(append(t, ')')))
	}
	if len(terms) == 0 {
		return b
	}
	slices.Sort(terms)
	b = append(b, lead...)
	for i, t := range terms {
		if i > 0 {
			b = append(b, '&')
		}
		b = append(b, t...)
	}
	return b
}

// Equal reports whether two sets constrain identically.
func (ps refPredSet) Equal(o refPredSet) bool {
	if len(ps.m) != len(o.m) {
		return false
	}
	for k, r := range ps.m {
		if or, ok := o.m[k]; !ok || or != r {
			return false
		}
	}
	return true
}

// Preds returns the constraints in canonical order.
func (ps refPredSet) Preds() []Pred {
	out := make([]Pred, 0, len(ps.m))
	for k, r := range ps.m {
		out = append(out, Pred{Stream: k.stream, Attr: k.attr, Range: r})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stream != out[j].Stream {
			return out[i].Stream < out[j].Stream
		}
		return out[i].Attr < out[j].Attr
	})
	return out
}

// Decoding pools for the differential tests: multi-digit stream IDs (9
// sorts after 10 in a signature), attributes whose spelling reorders
// terms ("a-b" and "a.b" before "a", "a:x" after it), and floats that
// round or carry a sign on zero; the last two are invalid bounds.
var (
	refStreams = []StreamID{0, 1, 2, 9, 10, 11, 19, 100}
	refAttrs   = []string{"a", "a-b", "a.b", "b", "zz", "a_c", "A", "a:x"}
	refFloats  = []float64{0, math.Copysign(0, -1), 1e-7, 0.1, 1.0 / 3, 0.25, 0.30000000000000004,
		0.5, 2.0 / 3, 0.7, 1 - 1e-12, 1, 5e-324, 0.1 + 0.7, 1.5, math.NaN()}
)

// decodePreds reads four bytes per predicate: stream, attribute and the
// two bounds (swapped when out of order), each an index into its pool.
func decodePreds(data []byte) []Pred {
	var out []Pred
	for ; len(data) >= 4; data = data[4:] {
		lo, hi := refFloats[int(data[2])%len(refFloats)], refFloats[int(data[3])%len(refFloats)]
		if lo > hi {
			lo, hi = hi, lo
		}
		out = append(out, Pred{
			Stream: refStreams[int(data[0])%len(refStreams)],
			Attr:   refAttrs[int(data[1])%len(refAttrs)],
			Range:  Range{lo, hi},
		})
	}
	return out
}

// samePreds compares predicate lists field by field, floats by their bits.
func samePreds(a, b []Pred) bool {
	return slices.EqualFunc(a, b, func(x, y Pred) bool {
		return x.Stream == y.Stream && x.Attr == y.Attr &&
			math.Float64bits(x.Range.Lo) == math.Float64bits(y.Range.Lo) &&
			math.Float64bits(x.Range.Hi) == math.Float64bits(y.Range.Hi)
	})
}

// checkAgainstRef builds two sets from a and b with both implementations
// and requires every observable to agree; streams selects a subset of
// refStreams by bit. It reports whether both sets were valid.
func checkAgainstRef(t *testing.T, a, b []byte, streams uint8) bool {
	t.Helper()
	build := func(data []byte) (PredSet, refPredSet, bool) {
		preds := decodePreds(data)
		got, err := NewPredSet(preds...)
		want, wantErr := newRefPredSet(preds...)
		if (err == nil) != (wantErr == nil) || err != nil && (err.Error() != wantErr.Error() ||
			errors.Is(err, ErrContradiction) != errors.Is(wantErr, ErrContradiction)) {
			t.Fatalf("NewPredSet(%v): error %v, reference %v", preds, err, wantErr)
		}
		return got, want, err == nil
	}
	ga, wa, okA := build(a)
	gb, wb, okB := build(b)
	if !okA || !okB {
		return false
	}
	sub := []StreamID{}
	for i, s := range refStreams {
		if streams&(1<<i) != 0 {
			sub = append(sub, s)
		}
	}
	for _, c := range []struct {
		got, other      PredSet
		want, wantOther refPredSet
	}{{ga, gb, wa, wb}, {gb, ga, wb, wa}} {
		g, w := c.got, c.want
		if g.Sig() != w.Sig() || g.Len() != w.Len() || g.Empty() != w.Empty() || !samePreds(g.Preds(), w.Preds()) {
			t.Fatalf("set %q: Sig/Len/Preds %q %d %v, reference %q %d %v", w.Sig(), g.Sig(), g.Len(), g.Preds(), w.Sig(), w.Len(), w.Preds())
		}
		for _, ss := range [][]StreamID{nil, sub} {
			if got, want := g.appendSig([]byte("x"), "#", ss), w.appendSig([]byte("x"), "#", ss); string(got) != string(want) {
				t.Fatalf("set %q: appendSig over %v = %q, reference %q", w.Sig(), ss, got, want)
			}
		}
		gr, wr := g.Restrict(sub), w.Restrict(sub)
		if gr.Sig() != wr.Sig() || !samePreds(gr.Preds(), wr.Preds()) {
			t.Fatalf("set %q: Restrict(%v) = %q, reference %q", w.Sig(), sub, gr.Sig(), wr.Sig())
		}
		if g.Contains(c.other) != w.Contains(c.wantOther) || g.Equal(c.other) != w.Equal(c.wantOther) ||
			g.Contains(gr) != w.Contains(wr) || gr.Contains(g) != wr.Contains(w) || g.Equal(gr) != w.Equal(wr) {
			t.Fatalf("sets %q, %q, restricted %q: Contains/Equal disagree with the reference", w.Sig(), c.wantOther.Sig(), wr.Sig())
		}
		for _, s := range refStreams {
			if got, want := g.StreamSelectivity(s), w.StreamSelectivity(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("set %q: StreamSelectivity(%d) = %v, reference %v", w.Sig(), s, got, want)
			}
		}
	}
	return true
}

// refSeeds are the hand-picked inputs: duplicates that intersect or
// contradict, 9 vs 10, "a-b"/"a.b"/"a" on one stream, four attributes on
// one stream, invalid ranges.
var refSeeds = []struct {
	a, b    []byte
	streams uint8
}{
	{[]byte{3, 0, 0, 7, 4, 0, 0, 7}, []byte{3, 0, 3, 5, 4, 0, 2, 7}, 0b01000},
	{[]byte{1, 0, 0, 11, 1, 0, 7, 11, 1, 0, 3, 9}, []byte{1, 0, 0, 3, 1, 0, 7, 11}, 0b00010},
	{[]byte{2, 0, 4, 11, 2, 1, 3, 9, 2, 2, 0, 6, 2, 7, 2, 10}, []byte{2, 0, 5, 10, 2, 1, 4, 8, 2, 2, 1, 6, 2, 7, 4, 10}, 0xff},
	{[]byte{6, 0, 1, 7, 6, 4, 0, 12, 7, 3, 6, 9, 4, 6, 2, 3}, []byte{7, 3, 6, 8}, 0b11000000},
	{[]byte{0, 0, 7, 3}, []byte{0, 0, 0, 13}, 1},
	{[]byte{0, 0, 0, 14}, []byte{5, 5, 5, 5, 5, 5, 5, 5}, 0},
}

// TestPredSetMatchesMapReference is FuzzPredSet's seed corpus plus 5,000
// seeded random pairs of up to 12 predicates each, one bound in 20 drawn
// from the whole pool (so mostly valid sets, some errors).
func TestPredSetMatchesMapReference(t *testing.T) {
	for _, c := range refSeeds {
		checkAgainstRef(t, c.a, c.b, c.streams)
	}
	rng := rand.New(rand.NewSource(25))
	valid, wide := 0, 0
	gen := func() []byte {
		b := make([]byte, 4*rng.Intn(13))
		for i := range b {
			switch n := len(refFloats) - 2; {
			case i%4 < 2:
				b[i] = byte(rng.Intn(8))
			case rng.Intn(20) > 0:
				b[i] = byte(rng.Intn(n))
			default:
				b[i] = byte(rng.Intn(n + 2))
			}
		}
		per := map[byte]map[byte]bool{}
		for i := 0; i < len(b); i += 4 {
			if per[b[i]] == nil {
				per[b[i]] = map[byte]bool{}
			}
			if per[b[i]][b[i+1]] = true; len(per[b[i]]) == 3 {
				wide++
			}
		}
		return b
	}
	for range 5000 {
		if checkAgainstRef(t, gen(), gen(), uint8(rng.Intn(256))) {
			valid++
		}
	}
	if valid < 1000 || wide < 1000 {
		t.Fatalf("vacuous: %d of 5,000 pairs valid, %d sets with 3 attributes on a stream", valid, wide)
	}
}

func FuzzPredSet(f *testing.F) {
	for _, c := range refSeeds {
		f.Add(c.a, c.b, c.streams)
	}
	f.Fuzz(func(t *testing.T, a, b []byte, streams uint8) { checkAgainstRef(t, a, b, streams) })
}
