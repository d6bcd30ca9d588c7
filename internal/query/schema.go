package query

import (
	"slices"
	"sort"
	"strconv"
)

// DefaultTupleWidth is the byte width of a tuple without a declared
// schema: what the runtime ships for a width-free plan node (see
// PlanNode.TupleWidth), and what mixed catalogs and rewrite byte
// accounting assume next to declared widths.
const DefaultTupleWidth = 100

// Attr is one attribute of a stream schema: a (lowercase) name and its
// width in bytes on the wire.
type Attr struct {
	Name  string
	Width float64
}

// Schema is the ordered attribute list of one base stream. A nil schema
// means "width unknown": the planners fall back to unit widths and the
// runtime to DefaultTupleWidth, exactly the pre-schema behavior.
type Schema []Attr

// Width returns the total byte width of one full tuple.
func (s Schema) Width() float64 {
	total := 0.0
	for _, a := range s {
		total += a.Width
	}
	return total
}

// ProjSpec records the post-pruning column set shipped for each pruned
// source stream of one query. Streams absent from the spec ship full
// tuples. A ProjSpec participates in operator signatures so pruned
// operators never alias full-width ones.
type ProjSpec struct {
	keep map[StreamID][]string
}

// NewProjSpec returns an empty projection spec.
func NewProjSpec() *ProjSpec { return &ProjSpec{keep: map[StreamID][]string{}} }

// Set records the kept attributes of one stream (copied, sorted).
func (p *ProjSpec) Set(id StreamID, attrs []string) {
	kept := append([]string(nil), attrs...)
	sort.Strings(kept)
	p.keep[id] = kept
}

// Keep returns the kept attributes of a stream and whether the stream is
// pruned at all.
func (p *ProjSpec) Keep(id StreamID) ([]string, bool) {
	if p == nil {
		return nil, false
	}
	attrs, ok := p.keep[id]
	return attrs, ok
}

// Empty reports whether no stream is pruned.
func (p *ProjSpec) Empty() bool { return p == nil || len(p.keep) == 0 }

// SigOf returns the canonical projection fragment for the covered streams:
// per pruned stream, the sorted kept columns. Streams shipping full tuples
// contribute nothing, so unpruned queries keep their plain signatures.
func (p *ProjSpec) SigOf(streams []StreamID) string {
	var buf [64]byte
	return string(p.appendSig(buf[:0], "", streams))
}

// appendSig appends lead and then SigOf(streams) to b, or nothing at all
// when SigOf is empty.
func (p *ProjSpec) appendSig(b []byte, lead string, streams []StreamID) []byte {
	if p.Empty() {
		return b
	}
	var idBuf [MaxSources]StreamID
	sorted := append(idBuf[:0], streams...)
	slices.Sort(sorted)
	sep := lead
	for _, id := range sorted {
		if attrs, ok := p.keep[id]; ok {
			b = append(strconv.AppendInt(append(b, sep...), int64(id), 10), '[')
			for i, a := range attrs {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, a...)
			}
			b = append(b, ']')
			sep = "|"
		}
	}
	return b
}

// WidthTable precomputes the byte width of one output tuple of every
// sub-join of one query: width(S) = Σ_{i∈S} shipped width of source i
// (join outputs concatenate their inputs' kept columns). Indexed by Mask,
// like RateTable. A nil table means "no width information": Width returns
// 1 so rate×width degrades to the pre-schema rate-only cost model.
type WidthTable []float64

// Width returns the tuple width of the sub-join covered by m (1 when the
// table is nil).
func (t WidthTable) Width(m Mask) float64 {
	if t == nil {
		return 1
	}
	return t[m]
}

// BuildWidths computes the width table for q against the catalog. The
// shipped width of source position i is q.SrcWidths[i] when set (the
// rewrite pipeline's post-pruning width), else the stream's full schema
// width, else DefaultTupleWidth for schema-less streams in a catalog that
// declares at least one schema. When no source carries any width
// information the result is nil and every width degrades to 1.
func BuildWidths(cat *Catalog, q *Query) WidthTable {
	k := q.K()
	eff := make([]float64, k)
	any := false
	for i, sid := range q.Sources {
		if q.SrcWidths != nil && i < len(q.SrcWidths) && q.SrcWidths[i] > 0 {
			eff[i] = q.SrcWidths[i]
			any = true
			continue
		}
		if w := cat.StreamWidth(sid); w > 0 {
			eff[i] = w
			any = true
		}
	}
	if !any {
		return nil
	}
	for i := range eff {
		if eff[i] == 0 {
			eff[i] = DefaultTupleWidth
		}
	}
	t := make(WidthTable, 1<<uint(k))
	for m := Mask(1); m < Mask(1<<uint(k)); m++ {
		low := m & (m ^ (m - 1)) // lowest set bit
		t[m] = t[m&(m-1)] + eff[trailingPos(low)]
	}
	return t
}

func trailingPos(m Mask) int {
	p := 0
	for m > 1 {
		m >>= 1
		p++
	}
	return p
}

// Stamp annotates every node of a placed plan tree with its output width
// from the table (a no-op for nil tables, preserving the width-free
// representation of legacy plans). Leaf inputs are stamped too, so the
// runtime can size derived subscriptions.
func (t WidthTable) Stamp(p *PlanNode) {
	if t == nil || p == nil {
		return
	}
	t.Stamp(p.L)
	t.Stamp(p.R)
	p.Width = t[p.Mask]
	if p.In != nil {
		p.In.Width = p.Width
	}
}
