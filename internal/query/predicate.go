package query

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
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

// PredSet is a conjunction of range predicates, normalized to at most one
// range per (stream, attribute) and stored in signature order: by the
// bytes of each constraint's "stream.attr:[lo,hi)" term, so stream 10
// precedes stream 9 and attribute "a-b" precedes "a". A set is never
// written after construction: copies share one backing array, and so do
// the sets Restrict returns whole. The zero value is the empty
// conjunction (no constraints) and is ready to use.
type PredSet struct {
	p []Pred
}

// NewPredSet builds a normalized predicate set, intersecting constraints
// on the same attribute in argument order, then sorting once. It errors
// on invalid ranges or empty intersections (an always-false query).
func NewPredSet(preds ...Pred) (PredSet, error) {
	out := make([]Pred, 0, len(preds))
	for _, p := range preds {
		if !p.Range.Valid() {
			return PredSet{}, fmt.Errorf("query: invalid range [%g,%g) on %d.%s",
				p.Range.Lo, p.Range.Hi, p.Stream, p.Attr)
		}
		i := slices.IndexFunc(out, func(o Pred) bool { return o.Stream == p.Stream && o.Attr == p.Attr })
		if i < 0 {
			out = append(out, p)
			continue
		}
		inter, ok := out[i].Range.Intersect(p.Range)
		if !ok {
			return PredSet{}, fmt.Errorf("query: %w on %d.%s", ErrContradiction, p.Stream, p.Attr)
		}
		out[i].Range = inter
	}
	slices.SortFunc(out, func(a, b Pred) int {
		var ab, bb [64]byte
		return bytes.Compare(appendTerm(ab[:0], a), appendTerm(bb[:0], b))
	})
	return PredSet{out}, nil
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
func (ps PredSet) Empty() bool { return len(ps.p) == 0 }

// Len returns the number of constrained attributes.
func (ps PredSet) Len() int { return len(ps.p) }

// Restrict returns the subset of constraints that touch the given streams.
// Only a strict, non-empty subset allocates: when every constraint
// survives it returns ps itself, when none does the zero set.
func (ps PredSet) Restrict(streams []StreamID) PredSet {
	n := 0
	for _, p := range ps.p {
		if slices.Contains(streams, p.Stream) {
			n++
		}
	}
	switch n {
	case 0:
		return PredSet{}
	case len(ps.p):
		return ps
	}
	out := make([]Pred, 0, n)
	for _, p := range ps.p {
		if slices.Contains(streams, p.Stream) {
			out = append(out, p)
		}
	}
	return PredSet{out}
}

// find returns the range constraining (s, attr), if any.
func (ps PredSet) find(s StreamID, attr string) (Range, bool) {
	for _, p := range ps.p {
		if p.Stream == s && p.Attr == attr {
			return p.Range, true
		}
	}
	return Range{}, false
}

// Contains reports whether results computed under ps contain the results
// required under stricter: every constraint of ps must be implied by
// stricter's constraint on the same attribute. (An unconstrained
// attribute in ps is trivially implied.) When true, stricter's output can
// be produced from ps's output by filtering.
func (ps PredSet) Contains(stricter PredSet) bool {
	for _, weak := range ps.p {
		strong, ok := stricter.find(weak.Stream, weak.Attr)
		if !ok || !weak.Range.Contains(strong) {
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
	for _, p := range ps.p {
		if p.Stream == s {
			on = append(on, p)
		}
	}
	// In attribute order, not signature order ("a-b" precedes "a" there):
	// the rounding of a 3-factor float product depends on it.
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
func (ps PredSet) Sig() string { return string(ps.appendSig(nil, "", nil)) }

// appendSig appends lead and then the signature fragment of the
// constraints on the given streams (on every stream when streams is nil),
// or nothing at all when there is no such constraint. The set is stored
// in term order, so the terms go straight into b: no restricted set, no
// per-term string, no sort.
func (ps PredSet) appendSig(b []byte, lead string, streams []StreamID) []byte {
	sep := lead
	for _, p := range ps.p {
		if streams == nil || slices.Contains(streams, p.Stream) {
			b = appendTerm(append(b, sep...), p)
			sep = "&"
		}
	}
	return b
}

// appendTerm appends p's signature term, "%d.%s:[%g,%g)" spelled out:
// fmt's %g is strconv's shortest 'g'.
func appendTerm(b []byte, p Pred) []byte {
	b = strconv.AppendInt(b, int64(p.Stream), 10)
	b = append(append(append(b, '.'), p.Attr...), ":["...)
	b = strconv.AppendFloat(b, p.Range.Lo, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, ','), p.Range.Hi, 'g', -1, 64)
	return append(b, ')')
}

// Equal reports whether two sets constrain identically.
func (ps PredSet) Equal(o PredSet) bool {
	if len(ps.p) != len(o.p) {
		return false
	}
	for _, p := range ps.p {
		if r, ok := o.find(p.Stream, p.Attr); !ok || r != p.Range {
			return false
		}
	}
	return true
}

// Preds returns the constraints in canonical order: by stream, then
// attribute.
func (ps PredSet) Preds() []Pred {
	out := append(make([]Pred, 0, len(ps.p)), ps.p...)
	slices.SortFunc(out, func(a, b Pred) int {
		return cmp.Or(cmp.Compare(a.Stream, b.Stream), cmp.Compare(a.Attr, b.Attr))
	})
	return out
}
