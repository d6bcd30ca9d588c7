package query

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// ErrContradiction marks predicate sets whose conjunction is provably
// empty (disjoint ranges on one attribute). Callers that want to plan
// such queries as no-ops instead of rejecting them — the rewrite
// pipeline's constant folding — detect it with errors.Is.
var ErrContradiction = errors.New("contradictory predicates")

// This file adds selection predicates and query containment — the paper's
// stated future work ("other optimization opportunities achievable through
// query containment", §5). A query may constrain stream attributes to
// ranges; a deployed operator computed under weaker predicates *contains*
// the results a stricter query needs, so the stricter query can reuse it
// through a residual filter applied at the producing node.

// Range is a numeric interval [Lo, Hi) over an attribute's normalized
// [0,1] domain.
type Range struct{ Lo, Hi float64 }

// Valid reports whether the range is non-empty and inside the domain.
func (r Range) Valid() bool { return 0 <= r.Lo && r.Lo < r.Hi && r.Hi <= 1 }

// Width returns the covered fraction of the domain — the selectivity of
// the constraint under a uniform value distribution.
func (r Range) Width() float64 { return r.Hi - r.Lo }

// Contains reports whether o lies entirely within r.
func (r Range) Contains(o Range) bool { return r.Lo <= o.Lo && o.Hi <= r.Hi }

// Intersect returns the overlap of two ranges; ok is false when disjoint.
func (r Range) Intersect(o Range) (Range, bool) {
	lo, hi := r.Lo, r.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if lo >= hi {
		return Range{}, false
	}
	return Range{lo, hi}, true
}

// Pred constrains one attribute of one stream to a range.
type Pred struct {
	Stream StreamID
	Attr   string
	Range  Range
}

type predKey struct {
	stream StreamID
	attr   string
}

// PredSet is a conjunction of range predicates, normalized to at most one
// range per (stream, attribute). The zero value is the empty conjunction
// (no constraints) and is ready to use.
type PredSet struct {
	m map[predKey]Range
}

// NewPredSet builds a normalized predicate set, intersecting constraints
// on the same attribute. It errors on invalid ranges or empty
// intersections (an always-false query).
func NewPredSet(preds ...Pred) (PredSet, error) {
	ps := PredSet{m: map[predKey]Range{}}
	for _, p := range preds {
		if !p.Range.Valid() {
			return PredSet{}, fmt.Errorf("query: invalid range [%g,%g) on %d.%s",
				p.Range.Lo, p.Range.Hi, p.Stream, p.Attr)
		}
		k := predKey{p.Stream, p.Attr}
		if ex, ok := ps.m[k]; ok {
			inter, ok := ex.Intersect(p.Range)
			if !ok {
				return PredSet{}, fmt.Errorf("query: %w on %d.%s", ErrContradiction, p.Stream, p.Attr)
			}
			ps.m[k] = inter
			continue
		}
		ps.m[k] = p.Range
	}
	return ps, nil
}

// MustPredSet is NewPredSet panicking on error, for literals in tests and
// examples.
func MustPredSet(preds ...Pred) PredSet {
	ps, err := NewPredSet(preds...)
	if err != nil {
		panic(err)
	}
	return ps
}

// Empty reports whether the set has no constraints.
func (ps PredSet) Empty() bool { return len(ps.m) == 0 }

// Len returns the number of constrained attributes.
func (ps PredSet) Len() int { return len(ps.m) }

// Restrict returns the subset of constraints that touch the given streams
// (the zero set, without allocating, when none does).
func (ps PredSet) Restrict(streams []StreamID) PredSet {
	var out PredSet
	for k, r := range ps.m {
		if !slices.Contains(streams, k.stream) {
			continue
		}
		if out.m == nil {
			out.m = map[predKey]Range{}
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
func (ps PredSet) Contains(stricter PredSet) bool {
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
func (ps PredSet) StreamSelectivity(s StreamID) float64 {
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
func (ps PredSet) Sig() string {
	if len(ps.m) == 0 {
		return ""
	}
	return string(ps.appendSig(nil, "", nil))
}

// appendSig appends lead and then the signature fragment of the
// constraints on the given streams (on every stream when streams is nil),
// or nothing at all when there is no such constraint. Restricting here is
// what lets a signature be built without materializing the restricted set.
func (ps PredSet) appendSig(b []byte, lead string, streams []StreamID) []byte {
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
func (ps PredSet) Equal(o PredSet) bool {
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
func (ps PredSet) Preds() []Pred {
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
