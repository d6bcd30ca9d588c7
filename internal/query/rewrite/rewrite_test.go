package rewrite

import (
	"math"
	"strings"
	"testing"

	"hnp/internal/query"
)

func testCatalog() *query.Catalog {
	cat := query.NewCatalog(0.01)
	cat.Add("A", 10, 0) // 8+16+40 = 64 bytes
	cat.Add("B", 20, 1) // 4+12 = 16 bytes
	cat.Add("C", 5, 2)  // schema-less
	cat.SetSchema(0, query.Schema{{Name: "x", Width: 8}, {Name: "y", Width: 16}, {Name: "z", Width: 40}})
	cat.SetSchema(1, query.Schema{{Name: "k", Width: 4}, {Name: "v", Width: 12}})
	return cat
}

func mustQuery(t *testing.T, id int, sources []query.StreamID, preds ...query.Pred) *query.Query {
	t.Helper()
	q, err := query.NewQueryPred(id, sources, 9, query.MustPredSet(preds...))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func traceRule(o Outcome, rule string) string {
	for _, line := range strings.Split(o.TraceString(), "\n") {
		if d, ok := strings.CutPrefix(line, rule+": "); ok {
			return d
		}
	}
	return ""
}

func TestFoldConstantsDropsAlwaysTrue(t *testing.T) {
	cat := testCatalog()
	q := mustQuery(t, 0, []query.StreamID{0, 1},
		query.Pred{Stream: 0, Attr: "y", Range: query.Range{Lo: 0.2, Hi: 0.6}},
		query.Pred{Stream: 1, Attr: "v", Range: query.Range{Lo: 0, Hi: 1}}) // always true
	sigBefore := q.Preds.Sig()
	out := Apply(cat, q, Projection{Star: true})
	if out.NoOp {
		t.Fatal("non-contradictory query folded to no-op")
	}
	if q.Preds.Len() != 1 {
		t.Errorf("kept %d predicates, want 1 (was %s)", q.Preds.Len(), sigBefore)
	}
	if d := traceRule(out, "fold-constants"); !strings.Contains(d, "1.v") {
		t.Errorf("fold-constants trace %q does not name the dropped predicate", d)
	}
	if out.RulesApplied < 1 {
		t.Errorf("RulesApplied = %d", out.RulesApplied)
	}
}

func TestFoldConstantsContradiction(t *testing.T) {
	cat := testCatalog()
	q := mustQuery(t, 0, []query.StreamID{0})
	out := Apply(cat, q, Projection{Contradiction: true})
	if !out.NoOp {
		t.Fatal("contradiction did not fold to no-op")
	}
	if out.BytesAfter != 0 {
		t.Errorf("no-op query still plans %g bytes", out.BytesAfter)
	}
	// BytesBefore is the full unfiltered source rate: 10 × 64.
	if math.Abs(out.BytesBefore-640) > 1e-9 {
		t.Errorf("BytesBefore = %g, want 640", out.BytesBefore)
	}
	if math.Abs(out.BytesSaved()-640) > 1e-9 {
		t.Errorf("BytesSaved = %g", out.BytesSaved())
	}
}

func TestPushPredicatesTracesSelectivity(t *testing.T) {
	cat := testCatalog()
	q := mustQuery(t, 0, []query.StreamID{0, 1},
		query.Pred{Stream: 0, Attr: "y", Range: query.Range{Lo: 0, Hi: 0.25}})
	out := Apply(cat, q, Projection{Star: true})
	d := traceRule(out, "push-predicates")
	if !strings.Contains(d, "rate 10→2.5") {
		t.Errorf("push-predicates trace = %q, want the 10→2.5 rate reduction", d)
	}
	// BytesAfter folds the selectivity: 2.5×64 + 20×16 (star: full widths).
	if want := 2.5*64 + 20*16; math.Abs(out.BytesAfter-want) > 1e-9 {
		t.Errorf("BytesAfter = %g, want %g", out.BytesAfter, want)
	}
}

func TestPruneColumns(t *testing.T) {
	cat := testCatalog()
	q := mustQuery(t, 0, []query.StreamID{0, 1},
		query.Pred{Stream: 0, Attr: "x", Range: query.Range{Lo: 0, Hi: 0.5}})
	proj := Projection{
		Cols:      map[query.StreamID][]string{0: {"y"}, 1: {"v"}},
		JoinAttrs: map[query.StreamID][]string{0: {"y"}, 1: {"k"}},
	}
	out := Apply(cat, q, proj)
	// A keeps x (predicate) + y (projection+join) = 24; z pruned.
	// B keeps k (join) + v (projection) = 16 — every column referenced, so
	// B is NOT pruned.
	if q.SrcWidths == nil || math.Abs(q.SrcWidths[0]-24) > 1e-9 {
		t.Fatalf("SrcWidths = %v, want [24 0]", q.SrcWidths)
	}
	if q.SrcWidths[1] != 0 {
		t.Errorf("fully-referenced stream was pruned: %v", q.SrcWidths)
	}
	if kept, ok := q.Proj.Keep(0); !ok || strings.Join(kept, ",") != "x,y" {
		t.Errorf("kept columns = %v, %v", kept, ok)
	}
	if _, ok := q.Proj.Keep(1); ok {
		t.Error("unpruned stream present in ProjSpec")
	}
	// Signatures must diverge from the unpruned query's so operators never
	// alias across projections.
	bare := mustQuery(t, 0, []query.StreamID{0, 1},
		query.Pred{Stream: 0, Attr: "x", Range: query.Range{Lo: 0, Hi: 0.5}})
	if q.SigOf(q.All()) == bare.SigOf(bare.All()) {
		t.Error("pruned and unpruned signatures alias")
	}
	if d := traceRule(out, "prune-columns"); !strings.Contains(d, "width 64→24") {
		t.Errorf("prune trace = %q", d)
	}
}

func TestPruneSkipsStarAndSchemaless(t *testing.T) {
	cat := testCatalog()
	star := mustQuery(t, 0, []query.StreamID{0, 1})
	out := Apply(cat, star, Projection{Star: true})
	if star.SrcWidths != nil || !star.Proj.Empty() {
		t.Errorf("SELECT * was pruned: widths=%v", star.SrcWidths)
	}
	if d := traceRule(out, "prune-columns"); !strings.Contains(d, "full tuples") {
		t.Errorf("star trace = %q", d)
	}

	// Schema-less stream C cannot be pruned even with a narrow projection.
	q := mustQuery(t, 1, []query.StreamID{2})
	Apply(cat, q, Projection{Cols: map[query.StreamID][]string{2: {"w"}}})
	if q.SrcWidths != nil {
		t.Errorf("schema-less stream pruned: %v", q.SrcWidths)
	}
}

// TestBytesMonotonic: over a grid of projections and predicates, the
// pipeline never increases planned source bytes, and full-projection
// predicate-free queries are left bit-identical (no rules applied beyond
// trace lines, no widths, no projection spec).
func TestBytesMonotonic(t *testing.T) {
	cat := testCatalog()
	projections := []Projection{
		{Star: true},
		{Cols: map[query.StreamID][]string{0: {"x"}, 1: {"k"}},
			JoinAttrs: map[query.StreamID][]string{0: {"x"}, 1: {"k"}}},
		{Cols: map[query.StreamID][]string{0: {"x", "y", "z"}, 1: {"k", "v"}}},
	}
	predSets := [][]query.Pred{
		nil,
		{{Stream: 0, Attr: "x", Range: query.Range{Lo: 0, Hi: 0.3}}},
		{{Stream: 0, Attr: "x", Range: query.Range{Lo: 0, Hi: 1}}}, // always true
	}
	for pi, proj := range projections {
		for si, preds := range predSets {
			q := mustQuery(t, pi*10+si, []query.StreamID{0, 1}, preds...)
			out := Apply(cat, q, proj)
			if out.BytesAfter > out.BytesBefore+1e-9 {
				t.Errorf("proj %d preds %d: bytes grew %g → %g", pi, si, out.BytesBefore, out.BytesAfter)
			}
			if out.BytesSaved() < 0 {
				t.Errorf("proj %d preds %d: negative savings", pi, si)
			}
		}
	}

	// The identity case: star projection, no predicates.
	q := mustQuery(t, 99, []query.StreamID{0, 1})
	out := Apply(cat, q, Projection{Star: true})
	if out.RulesApplied != 0 || q.SrcWidths != nil || !q.Proj.Empty() {
		t.Errorf("identity query rewritten: rules=%d widths=%v", out.RulesApplied, q.SrcWidths)
	}
	if out.BytesSaved() != 0 {
		t.Errorf("identity query saved %g bytes", out.BytesSaved())
	}
	if strings.Count(out.TraceString(), "\n") != 2 {
		t.Error("audit trace empty — every rule must leave a record even when idle")
	}
}
