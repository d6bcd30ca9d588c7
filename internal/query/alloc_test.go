package query

import "testing"

// TestSignatureAllocations pins what the retraction path costs per call
// on a predicated, projected query: signatures are appended into the
// caller's buffer with nothing allocated, and Restrict shares the set
// whenever all or none of it survives. A Fragment allocates its stream
// list and its Sig, nothing else. (StreamSelectivity's zero is pinned in
// TestStreamSelectivityOneBitPattern.)
func TestSignatureAllocations(t *testing.T) {
	preds := MustPredSet(
		Pred{Stream: 10, Attr: "a", Range: Range{0, 0.5}},
		Pred{Stream: 10, Attr: "a-b", Range: Range{0.25, 1}},
		Pred{Stream: 9, Attr: "x", Range: Range{0.1, 0.7}},
		Pred{Stream: 9, Attr: "y", Range: Range{0, 1.0 / 3}},
		Pred{Stream: 9, Attr: "z.w", Range: Range{0.5, 1}},
	)
	q, err := NewQueryPred(1, []StreamID{9, 10, 3}, 0, preds)
	if err != nil {
		t.Fatal(err)
	}
	q.Proj = NewProjSpec()
	q.Proj.Set(9, []string{"y", "x"})
	q.Proj.Set(3, []string{"k"})
	all, none := q.StreamsOf(q.All()), q.StreamsOf(0b100)
	if r := preds.Restrict(all); len(r.p) == 0 || &r.p[0] != &preds.p[0] {
		t.Error("Restrict keeping every constraint did not return the set itself")
	}
	if r := preds.Restrict(none); r.p != nil {
		t.Error("Restrict keeping no constraint is not the zero set")
	}

	var buf [256]byte
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"AppendSig, every stream", 0, func() { q.AppendSig(buf[:0], q.All()) }},
		{"AppendSig, one predicated stream", 0, func() { q.AppendSig(buf[:0], 0b001) }},
		{"Restrict, all survive", 0, func() { preds.Restrict(all) }},
		{"Restrict, none survives", 0, func() { preds.Restrict(none) }},
		{"Fragment, every stream", 2, func() { q.Fragment(q.All()) }},
		{"Fragment, no predicated stream", 2, func() { q.Fragment(0b100) }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n > c.max {
			t.Errorf("%s: %v allocs per call, want at most %v", c.name, n, c.max)
		}
	}
	if f := q.Fragment(q.All()); f.ProjSig != "3[k]|9[x,y]" || f.Sig != q.SigOf(q.All()) {
		t.Errorf("Fragment = %q / %q, want projection 3[k]|9[x,y] and Sig %q", f.Sig, f.ProjSig, q.SigOf(q.All()))
	}
}
