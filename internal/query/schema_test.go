package query

import (
	"math"
	"testing"
)

func schemaCatalog() *Catalog {
	cat := NewCatalog(0.01)
	cat.Add("A", 10, 0) // schema below: 8+16+40 = 64
	cat.Add("B", 20, 1) // schema below: 4+12 = 16
	cat.Add("C", 5, 2)  // no schema
	cat.SetSchema(0, Schema{{Name: "x", Width: 8}, {Name: "y", Width: 16}, {Name: "z", Width: 40}})
	cat.SetSchema(1, Schema{{Name: "k", Width: 4}, {Name: "v", Width: 12}})
	return cat
}

func TestSchemaWidths(t *testing.T) {
	s := Schema{{Name: "x", Width: 8}, {Name: "y", Width: 16}}
	if got := s.Width(); got != 24 {
		t.Errorf("Width = %g", got)
	}
	var nilSchema Schema
	if got := nilSchema.Width(); got != 0 {
		t.Errorf("nil schema width = %g", got)
	}
}

func TestCatalogSchemaAccess(t *testing.T) {
	cat := schemaCatalog()
	if got := cat.StreamWidth(0); got != 64 {
		t.Errorf("StreamWidth(0) = %g", got)
	}
	if got := cat.StreamWidth(2); got != 0 {
		t.Errorf("schema-less StreamWidth = %g, want 0 (unknown)", got)
	}
	if cat.Schema(1) == nil || cat.Schema(2) != nil {
		t.Error("Schema accessor wrong")
	}
}

func TestProjSpecSigAndKeep(t *testing.T) {
	p := NewProjSpec()
	if !p.Empty() {
		t.Error("fresh spec not empty")
	}
	p.Set(1, []string{"v", "k"}) // stored sorted
	p.Set(0, []string{"y"})
	if p.Empty() {
		t.Error("populated spec reports empty")
	}
	kept, ok := p.Keep(1)
	if !ok || len(kept) != 2 || kept[0] != "k" || kept[1] != "v" {
		t.Errorf("Keep(1) = %v, %v", kept, ok)
	}
	if _, ok := p.Keep(2); ok {
		t.Error("unpruned stream reported as pruned")
	}
	// Canonical: stream order in the argument must not matter, unpruned
	// streams contribute nothing.
	sig := p.SigOf([]StreamID{2, 1, 0})
	if sig != "0[y]|1[k,v]" {
		t.Errorf("SigOf = %q", sig)
	}
	if got := p.SigOf([]StreamID{2}); got != "" {
		t.Errorf("SigOf over unpruned streams = %q, want empty", got)
	}
	var nilSpec *ProjSpec
	if !nilSpec.Empty() {
		t.Error("nil spec not empty")
	}
	if _, ok := nilSpec.Keep(0); ok {
		t.Error("nil spec keeps streams")
	}
}

func TestQuerySigProjectionFragment(t *testing.T) {
	cat := schemaCatalog()
	_ = cat
	q, err := NewQuery(0, []StreamID{0, 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	plain := q.SigOf(q.All())
	if q.ProjSigOf(q.All()) != "" {
		t.Error("projection-less query has a projection fragment")
	}
	spec := NewProjSpec()
	spec.Set(0, []string{"y"})
	q.Proj = spec
	pruned := q.SigOf(q.All())
	if pruned == plain {
		t.Error("pruned and full-width signatures alias")
	}
	if want := plain + "%" + "0[y]"; pruned != want {
		t.Errorf("pruned sig = %q, want %q", pruned, want)
	}
	// Sub-join not covering the pruned stream keeps its plain signature.
	if got := q.SigOf(Mask(1 << 1)); got != SigOf([]StreamID{1}) {
		t.Errorf("sig of unpruned sub-join = %q", got)
	}
}

func TestBuildWidthsTable(t *testing.T) {
	cat := schemaCatalog()
	q, err := NewQuery(0, []StreamID{0, 1, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	wt := BuildWidths(cat, q)
	if wt == nil {
		t.Fatal("nil table despite declared schemas")
	}
	// Schema-less C counts at the default width so mixed catalogs stay
	// comparable.
	cases := map[Mask]float64{
		1 << 0:          64,
		1 << 1:          16,
		1 << 2:          DefaultTupleWidth,
		1<<0 | 1<<1:     80,
		FullMask(q.K()): 64 + 16 + DefaultTupleWidth,
	}
	for m, want := range cases {
		if got := wt.Width(m); math.Abs(got-want) > 1e-12 {
			t.Errorf("Width(%b) = %g, want %g", m, got, want)
		}
	}

	// SrcWidths (the rewrite pipeline's pruned widths) override schema
	// widths positionally.
	q.SrcWidths = []float64{16, 0, 0}
	wt = BuildWidths(cat, q)
	if got := wt.Width(1 << 0); got != 16 {
		t.Errorf("pruned width = %g", got)
	}
	if got := wt.Width(1 << 1); got != 16 {
		t.Errorf("untouched width = %g", got)
	}

	// A catalog with no width information at all yields a nil table and
	// unit widths — the pre-schema cost model.
	bare := NewCatalog(0.01)
	bare.Add("X", 1, 0)
	bare.Add("Y", 1, 1)
	q2, _ := NewQuery(1, []StreamID{0, 1}, 0)
	if wt := BuildWidths(bare, q2); wt != nil {
		t.Errorf("width-free catalog built table %v", wt)
	}
	var nilTable WidthTable
	if got := nilTable.Width(3); got != 1 {
		t.Errorf("nil table width = %g, want 1", got)
	}
}

func TestWidthStamp(t *testing.T) {
	cat := schemaCatalog()
	q, _ := NewQuery(0, []StreamID{0, 1}, 5)
	wt := BuildWidths(cat, q)
	l := Leaf(Input{Mask: 1 << 0, Rate: 10, Loc: 3, Sig: "s[0]"})
	r := Leaf(Input{Mask: 1 << 1, Rate: 20, Loc: 4, Sig: "s[1]"})
	join := Join(l, r, 4, 2)
	wt.Stamp(join)
	if l.Width != 64 || r.Width != 16 || join.Width != 80 {
		t.Errorf("stamped widths = %g, %g, %g", l.Width, r.Width, join.Width)
	}
	if l.In.Width != 64 {
		t.Errorf("leaf input width = %g", l.In.Width)
	}
	// WidthOr1 is the analytic accessor: stamped nodes price at their
	// width, unstamped ones at 1.
	bare := Leaf(Input{Mask: 1, Rate: 10, Loc: 3, Sig: "s[0]"})
	if bare.WidthOr1() != 1 || join.WidthOr1() != 80 {
		t.Errorf("WidthOr1 = %g, %g", bare.WidthOr1(), join.WidthOr1())
	}
	// Nil tables leave plans untouched.
	var nilTable WidthTable
	plain := Leaf(Input{Mask: 1, Rate: 10, Loc: 3, Sig: "s[0]"})
	nilTable.Stamp(plain)
	if plain.Width != 0 {
		t.Errorf("nil stamp set width %g", plain.Width)
	}
}

// TestPlannedBytesWidthAware: PlannedBytes charges rate×width per
// node-crossing edge; co-located edges are free.
func TestPlannedBytesWidthAware(t *testing.T) {
	cat := schemaCatalog()
	q, _ := NewQuery(0, []StreamID{0, 1}, 7)
	wt := BuildWidths(cat, q)
	l := Leaf(Input{Mask: 1 << 0, Rate: 10, Loc: 3, Sig: "s[0]"})
	r := Leaf(Input{Mask: 1 << 1, Rate: 20, Loc: 4, Sig: "s[1]"})
	join := Join(l, r, 4, 2) // co-located with r
	wt.Stamp(join)
	// l ships 10/s × 64B to the join; r is free; the root ships
	// rate × 80B to the sink.
	want := 10*64 + join.Rate*80
	if got := join.PlannedBytes(7); math.Abs(got-want) > 1e-9 {
		t.Errorf("PlannedBytes = %g, want %g", got, want)
	}
	// Sink co-location drops the delivery term.
	if got := join.PlannedBytes(4); math.Abs(got-(10*64)) > 1e-9 {
		t.Errorf("PlannedBytes(co-located sink) = %g", got)
	}
}
