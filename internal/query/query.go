package query

import (
	"fmt"
	"math/bits"
	"slices"

	"hnp/internal/netgraph"
)

// MaxSources bounds the number of sources per query; subset tables are
// sized 2^K, and the paper's workloads use 2-6 sources per query.
const MaxSources = 16

// Mask is a bitmask over the source positions of one query (bit i set
// means the i-th source of the query is covered).
type Mask uint32

// Has reports whether position i is in the mask.
func (m Mask) Has(i int) bool { return m&(1<<uint(i)) != 0 }

// Count returns the number of covered positions.
func (m Mask) Count() int { return bits.OnesCount32(uint32(m)) }

// Positions returns the covered positions in ascending order.
func (m Mask) Positions() []int {
	out := make([]int, 0, m.Count())
	for i := 0; m != 0; i, m = i+1, m>>1 {
		if m&1 != 0 {
			out = append(out, i)
		}
	}
	return out
}

// FullMask returns the mask covering positions 0..k-1.
func FullMask(k int) Mask { return Mask(1<<uint(k)) - 1 }

// Query is a continuous SPJ query joining a set of base streams, with the
// result delivered to a sink node.
type Query struct {
	ID      int
	Sources []StreamID
	Sink    netgraph.NodeID
	// Preds are the query's selection predicates; the zero value means
	// unconstrained. Predicates participate in signatures, rates and
	// containment-based reuse.
	Preds PredSet
	// Agg, when non-nil, applies a windowed aggregation to the join
	// result before delivery.
	Agg *AggSpec
	// SrcWidths, when non-nil, overrides the shipped byte width of each
	// source position (0 = use the catalog schema width). The rewrite
	// pipeline's column pruning sets these below the full schema widths.
	SrcWidths []float64
	// Proj, when non-nil, records which columns each pruned source ships.
	// It participates in operator signatures so pruned operators never
	// alias full-width ones in the advertisement registry or the runtime.
	Proj *ProjSpec
}

// NewQuery validates and builds a query. Sources must be non-empty,
// distinct and at most MaxSources.
func NewQuery(id int, sources []StreamID, sink netgraph.NodeID) (*Query, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("query %d: no sources", id)
	}
	if len(sources) > MaxSources {
		return nil, fmt.Errorf("query %d: %d sources exceeds limit %d", id, len(sources), MaxSources)
	}
	seen := map[StreamID]bool{}
	for _, s := range sources {
		if seen[s] {
			return nil, fmt.Errorf("query %d: duplicate source %d", id, s)
		}
		seen[s] = true
	}
	return &Query{ID: id, Sources: append([]StreamID(nil), sources...), Sink: sink}, nil
}

// NewQueryPred builds a query with selection predicates. Every predicate
// must constrain one of the query's source streams.
func NewQueryPred(id int, sources []StreamID, sink netgraph.NodeID, preds PredSet) (*Query, error) {
	q, err := NewQuery(id, sources, sink)
	if err != nil {
		return nil, err
	}
	srcs := map[StreamID]bool{}
	for _, s := range sources {
		srcs[s] = true
	}
	for _, p := range preds.Preds() {
		if !srcs[p.Stream] {
			return nil, fmt.Errorf("query %d: predicate on foreign stream %d", id, p.Stream)
		}
	}
	q.Preds = preds
	return q, nil
}

// K returns the number of source streams.
func (q *Query) K() int { return len(q.Sources) }

// All returns the mask covering every source.
func (q *Query) All() Mask { return FullMask(q.K()) }

// StreamsOf maps a mask to the global stream IDs it covers.
func (q *Query) StreamsOf(m Mask) []StreamID {
	out := make([]StreamID, 0, m.Count())
	for p, s := range q.Sources {
		if m.Has(p) {
			out = append(out, s)
		}
	}
	return out
}

// Fragment describes the sub-join of a query covered by one mask: what an
// advertisement of it carries and what a registry lookup for it matches
// against. Computing the parts together shares the stream list and the
// restricted predicate set between them.
type Fragment struct {
	// Streams are the covered base streams, in source-position order.
	Streams []StreamID
	// Preds are the query's predicates on the covered streams.
	Preds PredSet
	// ProjSig is the projection fragment over the covered streams ("" when
	// full tuples are shipped).
	ProjSig string
	// Sig is the canonical signature: the sorted stream IDs, then "#" and
	// the predicate fragment, then "%" and the projection fragment, each
	// only when non-empty.
	Sig string
}

// Fragment returns the description of the sub-join covered by m.
func (q *Query) Fragment(m Mask) Fragment {
	streams := q.StreamsOf(m)
	f := Fragment{Streams: streams, Preds: q.Preds.Restrict(streams)}
	var buf [128]byte
	b := f.Preds.appendSig(appendStreamSig(buf[:0], streams), "#", nil)
	n := len(b)
	f.Sig = string(q.Proj.appendSig(b, "%", streams))
	if len(f.Sig) > n {
		f.ProjSig = f.Sig[n+1:] // cut from Sig, not a string of its own
	}
	return f
}

// SigOf returns the canonical signature of the sub-join covered by m,
// including the query's predicates on the covered streams (so operators
// computed under different predicates never alias). Predicate-free
// queries keep the plain stream signature.
func (q *Query) SigOf(m Mask) string {
	var buf [128]byte
	return string(q.AppendSig(buf[:0], m))
}

// AppendSig appends SigOf(m) to b. It builds Fragment(m).Sig without the
// fragment: no stream list, no restricted predicate set, and with a
// caller-owned buffer no string either, which is how a retraction matches
// its advertisements without allocating.
func (q *Query) AppendSig(b []byte, m Mask) []byte {
	var idBuf [MaxSources]StreamID
	streams := idBuf[:0]
	for p, s := range q.Sources {
		if m.Has(p) {
			streams = append(streams, s)
		}
	}
	b = appendStreamSig(b, streams)
	b = q.Preds.appendSig(b, "#", streams)
	return q.Proj.appendSig(b, "%", streams)
}

// ProjSigOf returns the canonical projection fragment of the sub-join
// covered by m: empty for full-projection (or projection-less) queries,
// so their signatures are byte-identical with or without the rewrite
// pipeline.
func (q *Query) ProjSigOf(m Mask) string {
	if q.Proj.Empty() {
		return ""
	}
	return q.Proj.SigOf(q.StreamsOf(m))
}

// MaskOf returns the mask of positions corresponding to a set of global
// stream IDs, and false if any of them is not a source of this query.
func (q *Query) MaskOf(ids []StreamID) (Mask, bool) {
	var m Mask
	for _, id := range ids {
		p := slices.Index(q.Sources, id)
		if p < 0 {
			return 0, false
		}
		m |= 1 << uint(p)
	}
	return m, true
}

// RateTable precomputes the expected output rate of every sub-join of one
// query: rate(S) = Π_{i∈S} rate_i × Π_{i<j∈S} sel(i,j). Indexed by Mask.
type RateTable []float64

// BuildRates computes the rate table for q against the catalog. Each
// source pair's selectivity is looked up once; every mask then multiplies
// its pairs in ascending position order — the order is part of the
// contract, since the products' rounding reaches plan costs.
func BuildRates(cat *Catalog, q *Query) RateTable {
	k := q.K()
	t := make(RateTable, 1<<uint(k))
	var sel [MaxSources][MaxSources]float64
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			sel[i][j] = cat.Selectivity(q.Sources[i], q.Sources[j])
		}
	}
	for m := Mask(1); m < Mask(1<<uint(k)); m++ {
		// Split off the lowest position and combine with the rest.
		low := bits.TrailingZeros32(uint32(m))
		rest := m & (m - 1)
		if rest == 0 {
			sid := q.Sources[low]
			t[m] = cat.Stream(sid).Rate * q.Preds.StreamSelectivity(sid)
			continue
		}
		cross := 1.0
		for r := rest; r != 0; r &= r - 1 {
			cross *= sel[low][bits.TrailingZeros32(uint32(r))]
		}
		t[m] = t[1<<uint(low)] * t[rest] * cross
	}
	return t
}

// Rate returns the expected output rate of the sub-join covered by m.
func (t RateTable) Rate(m Mask) float64 { return t[m] }

// NumTrees returns the number of distinct (possibly bushy) join trees over
// k leaves: (2k-3)!! — 1, 1, 3, 15, 105, 945, ... This is the per-plan
// factor in the Lemma 1 search-space size.
func NumTrees(k int) int64 {
	if k < 1 {
		return 0
	}
	n := int64(1)
	for f := int64(2*k - 3); f >= 3; f -= 2 {
		n *= f
	}
	return n
}
