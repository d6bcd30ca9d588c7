// Package rewrite is the logical optimizer pipeline that runs over a
// query before placement: an ordered list of rule passes — constant
// folding, predicate pushdown, column pruning — each emitting an
// auditable trace entry. The pipeline rewrites the query's logical
// parameters (normalized predicates, per-source shipped widths, the
// projection spec that participates in operator signatures) so the
// hierarchical planners downstream price every edge at the reduced
// rate×width instead of full tuples, and pick different — cheaper —
// placements. The template is sqlstream's rule pipeline (SNIPPETS.md
// Snippet 1); the per-edge width pricing follows the geo-distributed
// streaming cost-model line of work (PAPERS.md, arXiv 2105.12507).
//
// The pipeline is semantics-preserving by construction: it only drops
// provably-redundant predicates, provably-empty queries, and columns no
// projection, predicate or join key references. There is no switch: every
// CQL-planned query runs it, and comparisons against unoptimized planning
// build that side from the parsed statement without calling Apply.
package rewrite

import (
	"fmt"
	"sort"
	"strings"

	"hnp/internal/query"
)

// Projection carries the statement-level column information the rules
// consume: what the query SELECTs and which attributes its equi-joins
// match on.
type Projection struct {
	// Star means the statement asked for full tuples (`SELECT *`):
	// column pruning is disabled, widths stay at full schema width.
	Star bool
	// Cols maps each stream to its selected attributes (lowercase).
	Cols map[query.StreamID][]string
	// JoinAttrs maps each stream to its equi-join key attributes
	// (lowercase) — always kept by pruning.
	JoinAttrs map[query.StreamID][]string
	// Contradiction marks a WHERE clause that is provably always-false;
	// constant folding turns the whole query into a no-op.
	Contradiction bool
}

// TraceEntry is one rule's audit record.
type TraceEntry struct {
	// Rule names the pass ("fold-constants", "push-predicates",
	// "prune-columns").
	Rule string
	// Detail describes what the rule did, human-readable.
	Detail string
}

// Outcome reports what the pipeline did to one query.
type Outcome struct {
	// NoOp means the query is provably empty (contradictory predicates):
	// it plans to nothing and ships no bytes.
	NoOp bool
	// RulesApplied counts rules that changed the query.
	RulesApplied int
	// Trace is the ordered per-rule audit.
	Trace []TraceEntry
	// BytesBefore/BytesAfter are the planned source byte rates (Σ over
	// sources of rate×width) before any pushdown — full rates, full
	// widths — and after: predicate-filtered rates × pruned widths.
	// BytesAfter ≤ BytesBefore always; the gap is the pipeline's planned
	// bytes-on-wire saving at the sources.
	BytesBefore, BytesAfter float64
}

// BytesSaved returns the planned source byte-rate reduction.
func (o Outcome) BytesSaved() float64 { return o.BytesBefore - o.BytesAfter }

// TraceString renders the audit one rule per line.
func (o Outcome) TraceString() string {
	lines := make([]string, len(o.Trace))
	for i, e := range o.Trace {
		lines[i] = e.Rule + ": " + e.Detail
	}
	return strings.Join(lines, "\n")
}

// Apply runs the pipeline over q in place: predicates are normalized,
// per-source shipped widths (q.SrcWidths) and the projection spec
// (q.Proj) are set. The catalog provides schemas and rates; proj carries
// the statement's column information. Apply ignores the kill switch —
// callers gate on Enabled() so planning surfaces stay in control of the
// A/B comparison.
func Apply(cat *query.Catalog, q *query.Query, proj Projection) Outcome {
	var out Outcome
	out.BytesBefore = sourceBytes(cat, q, false, nil)
	foldConstants(q, proj, &out)
	if !out.NoOp {
		pushPredicates(cat, q, &out)
		pruneColumns(cat, q, proj, &out)
		out.BytesAfter = sourceBytes(cat, q, true, q.SrcWidths)
	}
	return out
}

// sourceBytes totals rate×width over the query's sources. filtered
// applies the predicates' stream selectivities; widths overrides the full
// schema widths per position when set. Schema-less streams count at
// query.DefaultTupleWidth so mixed catalogs stay comparable.
func sourceBytes(cat *query.Catalog, q *query.Query, filtered bool, widths []float64) float64 {
	total := 0.0
	for i, sid := range q.Sources {
		rate := cat.Stream(sid).Rate
		if filtered {
			rate *= q.Preds.StreamSelectivity(sid)
		}
		w := cat.StreamWidth(sid)
		if w == 0 {
			w = query.DefaultTupleWidth
		}
		if widths != nil && i < len(widths) && widths[i] > 0 {
			w = widths[i]
		}
		total += rate * w
	}
	return total
}

// foldConstants drops predicates that cover the whole [0,1) domain
// (always-true) and folds contradictory statements to a no-op plan.
func foldConstants(q *query.Query, proj Projection, out *Outcome) {
	const rule = "fold-constants"
	if proj.Contradiction {
		out.NoOp = true
		out.RulesApplied++
		out.Trace = append(out.Trace, TraceEntry{rule,
			"WHERE is provably empty (disjoint ranges on one attribute): query plans to a no-op"})
		return
	}
	var keep, dropped []query.Pred
	for _, p := range q.Preds.Preds() {
		if p.Range.Lo <= 0 && p.Range.Hi >= 1 {
			dropped = append(dropped, p)
			continue
		}
		keep = append(keep, p)
	}
	if len(dropped) == 0 {
		out.Trace = append(out.Trace, TraceEntry{rule, "no always-true or contradictory predicates"})
		return
	}
	ps, err := query.NewPredSet(keep...)
	if err != nil {
		// keep is a subset of an already-normalized valid set; rebuilding
		// it cannot fail.
		panic(fmt.Sprintf("rewrite: refold of valid predicate subset failed: %v", err))
	}
	q.Preds = ps
	out.RulesApplied++
	names := make([]string, len(dropped))
	for i, p := range dropped {
		names[i] = fmt.Sprintf("%d.%s", p.Stream, p.Attr)
	}
	out.Trace = append(out.Trace, TraceEntry{rule,
		fmt.Sprintf("dropped %d always-true predicate(s): %s (signatures normalize, reuse improves)",
			len(dropped), strings.Join(names, ", "))})
}

// pushPredicates classifies every surviving predicate to its source
// stream and records the rate reduction the planner's leaves will see —
// selections run at the sources, before any tuple crosses the network.
func pushPredicates(cat *query.Catalog, q *query.Query, out *Outcome) {
	const rule = "push-predicates"
	if q.Preds.Empty() {
		out.Trace = append(out.Trace, TraceEntry{rule, "no predicates to push"})
		return
	}
	var parts []string
	for _, sid := range q.Sources {
		sel := q.Preds.StreamSelectivity(sid)
		if sel >= 1 {
			continue
		}
		rate := cat.Stream(sid).Rate
		parts = append(parts, fmt.Sprintf("stream %d: rate %.3g→%.3g (sel %.3g)",
			sid, rate, rate*sel, sel))
	}
	if len(parts) == 0 {
		out.Trace = append(out.Trace, TraceEntry{rule, "no predicates to push"})
		return
	}
	out.RulesApplied++
	out.Trace = append(out.Trace, TraceEntry{rule,
		"selections evaluated at source operators: " + strings.Join(parts, "; ")})
}

// pruneColumns drops columns no projection, predicate or join key
// references, shrinking each source's shipped width. Requires schemas;
// SELECT * keeps full tuples.
func pruneColumns(cat *query.Catalog, q *query.Query, proj Projection, out *Outcome) {
	const rule = "prune-columns"
	if proj.Star || proj.Cols == nil {
		out.Trace = append(out.Trace, TraceEntry{rule, "SELECT * ships full tuples; nothing to prune"})
		return
	}
	var parts []string
	spec := query.NewProjSpec()
	widths := make([]float64, q.K())
	pruned := false
	for i, sid := range q.Sources {
		schema := cat.Schema(sid)
		if schema == nil {
			continue // no width information; full tuples
		}
		needed := map[string]bool{}
		for _, a := range proj.Cols[sid] {
			needed[a] = true
		}
		for _, a := range proj.JoinAttrs[sid] {
			needed[a] = true
		}
		for _, p := range q.Preds.Preds() {
			if p.Stream == sid {
				needed[p.Attr] = true
			}
		}
		var keep []string
		width := 0.0
		for _, a := range schema {
			if needed[a.Name] {
				keep = append(keep, a.Name)
				width += a.Width
			}
		}
		if len(keep) == len(schema) {
			continue // nothing referenced is droppable
		}
		sort.Strings(keep)
		spec.Set(sid, keep)
		widths[i] = width
		pruned = true
		parts = append(parts, fmt.Sprintf("stream %d: %d/%d columns, width %.4g→%.4g",
			sid, len(keep), len(schema), schema.Width(), width))
	}
	if !pruned {
		out.Trace = append(out.Trace, TraceEntry{rule, "every schema column is referenced; nothing to prune"})
		return
	}
	q.SrcWidths = widths
	q.Proj = spec
	out.RulesApplied++
	out.Trace = append(out.Trace, TraceEntry{rule, strings.Join(parts, "; ")})
}
