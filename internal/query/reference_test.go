package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hnp/internal/netgraph"
)

// referenceRates is BuildRates as it stood before the pair table: one
// catalog probe per (mask, position), positions from Mask.Positions.
func referenceRates(cat *Catalog, q *Query) RateTable {
	k := q.K()
	t := make(RateTable, 1<<uint(k))
	for m := Mask(1); m < Mask(1<<uint(k)); m++ {
		ps := m.Positions()
		if len(ps) == 1 {
			sid := q.Sources[ps[0]]
			t[m] = cat.Stream(sid).Rate * q.Preds.StreamSelectivity(sid)
			continue
		}
		low := ps[0]
		rest := m &^ (1 << uint(low))
		cross := 1.0
		for _, p := range rest.Positions() {
			cross *= cat.Selectivity(q.Sources[low], q.Sources[p])
		}
		t[m] = t[1<<uint(low)] * t[rest] * cross
	}
	return t
}

// referenceSig is Query.Fragment(m).Sig as it stood before signatures were
// appended into buffers: cloned and sorted IDs, fmt-formatted predicate
// terms, string concatenation.
func referenceSig(q *Query, m Mask) string {
	streams := q.StreamsOf(m)
	sorted := slices.Clone(streams)
	slices.Sort(sorted)
	parts := make([]string, len(sorted))
	for i, id := range sorted {
		parts[i] = strconv.Itoa(int(id))
	}
	sig := strings.Join(parts, "|")
	var terms []string
	for _, p := range q.Preds.Restrict(streams).Preds() {
		terms = append(terms, fmt.Sprintf("%d.%s:[%g,%g)", p.Stream, p.Attr, p.Range.Lo, p.Range.Hi))
	}
	sort.Strings(terms)
	if len(terms) > 0 {
		sig += "#" + strings.Join(terms, "&")
	}
	if ps := q.ProjSigOf(m); ps != "" {
		sig += "%" + ps
	}
	return sig
}

// TestRatesAndSigsMatchReference holds the two per-query tables the
// planners build first to their pre-rework definitions: rates bit for bit,
// signatures byte for byte, on random queries with awkward floats, shared
// attributes across two-digit stream IDs, and pruned projections.
func TestRatesAndSigsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	awkward := []float64{0, 1e-7, 0.1, 1.0 / 3, 0.25, 0.30000000000000004, 0.5, 1 - 1e-12, 1}
	for trial := 0; trial < 400; trial++ {
		cat := NewCatalog(rng.Float64())
		n := 2 + rng.Intn(20)
		for i := 0; i < n; i++ {
			cat.Add("s", rng.Float64()*100, netgraph.NodeID(i))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) > 0 {
					cat.SetSelectivity(StreamID(j), StreamID(i), rng.Float64())
				}
			}
		}
		k := 1 + rng.Intn(min(n, 7))
		var srcs []StreamID
		for _, s := range rng.Perm(n)[:k] {
			srcs = append(srcs, StreamID(s))
		}
		var preds []Pred
		for range rng.Intn(5) {
			lo, hi := awkward[rng.Intn(len(awkward))], awkward[rng.Intn(len(awkward))]
			if lo > hi {
				lo, hi = hi, lo
			}
			if r := (Range{lo, hi}); r.Valid() {
				preds = append(preds, Pred{Stream: srcs[rng.Intn(k)], Attr: []string{"a", "zz", "a-b", "a.b", "b"}[rng.Intn(5)], Range: r})
			}
		}
		ps, err := NewPredSet(preds...)
		if err != nil {
			continue // drew a contradiction
		}
		q, err := NewQueryPred(trial, srcs, 0, ps)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			q.Proj = NewProjSpec()
			q.Proj.Set(srcs[rng.Intn(k)], []string{"y", "x"})
		}

		got, want := BuildRates(cat, q), referenceRates(cat, q)
		for m := range want {
			if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
				t.Fatalf("trial %d: rate[%b] = %v, reference %v", trial, m, got[m], want[m])
			}
		}
		for m := Mask(1); m <= q.All(); m++ {
			want := referenceSig(q, m)
			if got := q.SigOf(m); got != want {
				t.Fatalf("trial %d: SigOf(%b) = %q, reference %q", trial, m, got, want)
			}
			if got := q.Fragment(m).Sig; got != want {
				t.Fatalf("trial %d: Fragment(%b).Sig = %q, reference %q", trial, m, got, want)
			}
		}
		if got, want := q.Preds.Sig(), strings.TrimPrefix(referenceSig(q, q.All()), SigOf(srcs)+"#"); !q.Preds.Empty() && q.Proj.Empty() && got != want {
			t.Fatalf("trial %d: PredSet.Sig = %q, reference %q", trial, got, want)
		}
	}
}
