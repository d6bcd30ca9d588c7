// Package rewrite is the logical optimizer pipeline that runs over a
// query before placement: an ordered list of rule passes — constant
// folding, predicate pushdown, column pruning — each leaving one line
// of an audit. The pipeline rewrites the query's logical
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

// Outcome reports what the pipeline did to one query.
type Outcome struct {
	// NoOp means the query is provably empty (contradictory predicates):
	// it plans to nothing and ships no bytes.
	NoOp bool
	// RulesApplied counts rules that changed the query.
	RulesApplied int
	// audit is one "rule: detail" line per pass that ran, in order. The
	// audits of statements no rule changes are constants, shared by all.
	audit string
	// BytesBefore/BytesAfter are the planned source byte rates (Σ over
	// sources of rate×width) before any pushdown — full rates, full
	// widths — and after: predicate-filtered rates × pruned widths.
	// BytesAfter ≤ BytesBefore always; the gap is the pipeline's planned
	// bytes-on-wire saving at the sources.
	BytesBefore, BytesAfter float64
}

// BytesSaved returns the planned source byte-rate reduction.
func (o Outcome) BytesSaved() float64 { return o.BytesBefore - o.BytesAfter }

// TraceString returns the audit, one rule per line.
func (o Outcome) TraceString() string { return o.audit }

// The audit lines of passes that leave a statement as it is, and the two
// audits of a statement no pass changes.
const (
	foldNone      = "fold-constants: no always-true or contradictory predicates"
	pushNone      = "push-predicates: no predicates to push"
	pruneStar     = "prune-columns: SELECT * ships full tuples; nothing to prune"
	pruneAll      = "prune-columns: every schema column is referenced; nothing to prune"
	unchangedStar = foldNone + "\n" + pushNone + "\n" + pruneStar
	unchangedAll  = foldNone + "\n" + pushNone + "\n" + pruneAll
)

// Apply runs the pipeline over q in place: predicates are normalized,
// per-source shipped widths (q.SrcWidths) and the projection spec
// (q.Proj) are set. The catalog provides schemas and rates; proj carries
// the statement's column information.
func Apply(cat *query.Catalog, q *query.Query, proj Projection) Outcome {
	var out Outcome
	out.BytesBefore = sourceBytes(cat, q, false, nil)
	if out.audit = foldConstants(q, proj, &out); out.NoOp {
		return out
	}
	push, prune := pushPredicates(cat, q, &out), pruneColumns(cat, q, proj, &out)
	out.BytesAfter = sourceBytes(cat, q, true, q.SrcWidths)
	switch {
	case out.RulesApplied > 0:
		out.audit += "\n" + push + "\n" + prune
	case prune == pruneStar:
		out.audit = unchangedStar
	default:
		out.audit = unchangedAll
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
// (always-true) and folds contradictory statements to a no-op plan. It
// returns its audit line, as do the other passes.
func foldConstants(q *query.Query, proj Projection, out *Outcome) string {
	if proj.Contradiction {
		out.NoOp = true
		out.RulesApplied++
		return "fold-constants: WHERE is provably empty (disjoint ranges on one attribute): query plans to a no-op"
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
		return foldNone
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
	return fmt.Sprintf("fold-constants: dropped %d always-true predicate(s): %s (signatures normalize, reuse improves)",
		len(dropped), strings.Join(names, ", "))
}

// pushPredicates classifies every surviving predicate to its source
// stream and records the rate reduction the planner's leaves will see —
// selections run at the sources, before any tuple crosses the network.
func pushPredicates(cat *query.Catalog, q *query.Query, out *Outcome) string {
	if q.Preds.Empty() {
		return pushNone
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
		return pushNone
	}
	out.RulesApplied++
	return "push-predicates: selections evaluated at source operators: " + strings.Join(parts, "; ")
}

// pruneColumns drops columns no projection, predicate or join key
// references, shrinking each source's shipped width. Requires schemas;
// SELECT * keeps full tuples.
func pruneColumns(cat *query.Catalog, q *query.Query, proj Projection, out *Outcome) string {
	if proj.Star || proj.Cols == nil {
		return pruneStar
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
		return pruneAll
	}
	q.SrcWidths = widths
	q.Proj = spec
	out.RulesApplied++
	return "prune-columns: " + strings.Join(parts, "; ")
}
