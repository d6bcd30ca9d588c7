package ads

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
)

// linearInputsFor is the registry's lookup before the stream-set index:
// every ad, in All order, checked against the query one by one. It is the
// reference the indexed InputsFor must equal element for element.
func linearInputsFor(r *Registry, q *query.Query, rt query.RateTable) []query.Input {
	var out []query.Input
	for _, ad := range r.All() {
		mask, ok := q.MaskOf(ad.Streams)
		if !ok || mask.Count() < 2 {
			continue
		}
		need := q.Preds.Restrict(ad.Streams)
		if !ad.Preds.Contains(need) {
			continue
		}
		if ad.ProjSig != q.ProjSigOf(mask) {
			continue
		}
		in := query.Input{Mask: mask, Rate: rt.Rate(mask), Loc: ad.Node, Derived: true, Sig: q.SigOf(mask)}
		if !ad.Preds.Equal(need) {
			in.BaseSig = ad.Sig
		}
		out = append(out, in)
	}
	return out
}

// deployment is one advertised plan of a generated population.
type deployment struct {
	q    *query.Query
	plan *query.PlanNode
}

// nested ranges, so that random predicate draws produce equal, strictly
// containing and incomparable pairs.
var testRanges = []query.Range{{Lo: 0, Hi: 0.8}, {Lo: 0.2, Hi: 0.6}, {Lo: 0.3, Hi: 0.5}, {Lo: 0.7, Hi: 0.9}}

// randomDeployment draws a query over k of the first `streams` streams —
// with predicates and a projection when rich is set — and a left-deep plan
// for it whose operators sit on random nodes below `nodes`.
func randomDeployment(rng *rand.Rand, id, streams, nodes int, rich bool) deployment {
	k := 2 + rng.Intn(5)
	if k > streams {
		k = streams
	}
	var srcs []query.StreamID
	for _, s := range rng.Perm(streams)[:k] {
		srcs = append(srcs, query.StreamID(s))
	}
	q, err := query.NewQuery(id, srcs, netgraph.NodeID(rng.Intn(nodes)))
	if err != nil {
		panic(err)
	}
	if rich {
		var preds []query.Pred
		proj := query.NewProjSpec()
		for _, s := range srcs {
			if rng.Intn(3) == 0 {
				preds = append(preds, query.Pred{Stream: s, Attr: "x", Range: testRanges[rng.Intn(len(testRanges))]})
			}
			if rng.Intn(6) == 0 {
				proj.Set(s, []string{"a", "b"}[:1+rng.Intn(2)])
			}
		}
		q.Preds = query.MustPredSet(preds...)
		if rng.Intn(2) == 0 {
			q.Proj = proj
		}
	}
	leaf := func(p int) *query.PlanNode {
		return query.Leaf(query.Input{Mask: 1 << uint(p), Loc: netgraph.NodeID(rng.Intn(nodes))})
	}
	plan := leaf(0)
	for p := 1; p < k; p++ {
		plan = query.Join(plan, leaf(p), netgraph.NodeID(rng.Intn(nodes)), 1)
	}
	return deployment{q, plan}
}

// handBuilt returns ads no AdvertisePlan would create: no Streams at all
// (never offered, whatever the signature says), single streams, and one
// signature on several nodes.
func handBuilt(rng *rand.Rand, streams, nodes int) []Ad {
	var out []Ad
	for i := 0; i < 12; i++ {
		pair := rng.Perm(streams)[:2]
		ids := []query.StreamID{query.StreamID(pair[0]), query.StreamID(pair[1])}
		sig := query.SigOf(ids)
		out = append(out,
			Ad{Sig: sig, Node: netgraph.NodeID(rng.Intn(nodes)), QueryID: -1},
			Ad{Sig: query.SigOf(ids[:1]), Streams: ids[:1], Node: netgraph.NodeID(rng.Intn(nodes)), QueryID: -1},
			Ad{Sig: sig, Streams: ids, Node: netgraph.NodeID(rng.Intn(nodes)), QueryID: -1},
			Ad{Sig: sig + "#hand", Streams: ids, Node: netgraph.NodeID(rng.Intn(nodes)), QueryID: -1,
				Preds: query.MustPredSet(query.Pred{Stream: ids[0], Attr: "x", Range: testRanges[rng.Intn(len(testRanges))]})},
		)
	}
	return out
}

func TestInputsForMatchesLinearScan(t *testing.T) {
	const streams, nodes = 9, 6
	offered, contained := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry()
		for i := 0; i < 60; i++ {
			d := randomDeployment(rng, i, streams, nodes, true)
			r.AdvertisePlan(d.q, d.plan)
		}
		for _, ad := range handBuilt(rng, streams, nodes) {
			r.Advertise(ad)
		}
		for i := 0; i < 60; i++ {
			q := randomDeployment(rng, 1000+i, streams, nodes, true).q
			rt := make(query.RateTable, 1<<uint(q.K()))
			for m := range rt {
				rt[m] = float64(m) + 0.5
			}
			got, want := r.InputsFor(q, rt), linearInputsFor(r, q, rt)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d query %d:\n got %+v\nwant %+v", seed, i, got, want)
			}
			offered += len(got)
			for _, in := range got {
				if in.BaseSig != "" {
					contained++
				}
			}
		}
	}
	// The comparison is empty unless the generator produces matches of
	// both kinds.
	if offered < 1000 || contained < 100 {
		t.Errorf("generator too sparse: %d inputs offered, %d by strict containment", offered, contained)
	}
}

func TestRetractPlanMatchesPrune(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := NewRegistry(), NewRegistry()
		var deps []deployment
		for i := 0; i < 80; i++ {
			// Few streams and nodes: later plans lose the duplicate check to
			// earlier ones, whose ads they must not retract.
			d := randomDeployment(rng, i, 6, 3, i%2 == 0)
			deps = append(deps, d)
			if x, y := a.AdvertisePlan(d.q, d.plan), b.AdvertisePlan(d.q, d.plan); x != y {
				t.Fatalf("seed %d: twin registries diverged on advertise: %d vs %d", seed, x, y)
			}
		}
		for _, i := range rng.Perm(len(deps)) {
			d := deps[i]
			got := a.RetractPlan(d.q, d.plan)
			want := b.Prune(func(ad Ad) bool { return ad.QueryID != d.q.ID })
			if got != want {
				t.Fatalf("seed %d query %d: RetractPlan removed %d, Prune %d", seed, d.q.ID, got, want)
			}
			if !reflect.DeepEqual(a.All(), b.All()) {
				t.Fatalf("seed %d query %d: registries differ after retraction", seed, d.q.ID)
			}
			if again := a.RetractPlan(d.q, d.plan); again != 0 {
				t.Fatalf("seed %d query %d: second RetractPlan removed %d", seed, d.q.ID, again)
			}
		}
		if a.Len() != 0 || len(a.buckets) != 0 || len(b.buckets) != 0 {
			t.Fatalf("seed %d: not empty after retracting everything: len %d, buckets %d / %d",
				seed, a.Len(), len(a.buckets), len(b.buckets))
		}
	}
}

func TestInterleavedChurnLeavesNoBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := NewRegistry()
	live := map[int]deployment{}
	count := func() int {
		n := 0
		for _, list := range r.buckets {
			if len(list) == 0 {
				t.Fatal("empty bucket kept")
			}
			n += len(list)
		}
		return n
	}
	for i := 0; i < 2000; i++ {
		switch op := rng.Intn(10); {
		case op < 5:
			d := randomDeployment(rng, i, 8, 4, true)
			live[i] = d
			r.AdvertisePlan(d.q, d.plan)
		case op < 8:
			for id, d := range live {
				r.RetractPlan(d.q, d.plan)
				delete(live, id)
				break
			}
		default:
			node := netgraph.NodeID(rng.Intn(4))
			r.Prune(func(ad Ad) bool { return ad.Node != node })
		}
		if got := count(); got != r.Len() {
			t.Fatalf("step %d: buckets hold %d ads, Len says %d", i, got, r.Len())
		}
	}
	for _, d := range live {
		r.RetractPlan(d.q, d.plan)
	}
	if r.Len() != 0 || len(r.buckets) != 0 {
		t.Fatalf("after draining: Len %d, %d buckets", r.Len(), len(r.buckets))
	}
}

func TestRetractionZeroesVacatedSlots(t *testing.T) {
	q := &query.Query{Sources: []query.StreamID{0, 1},
		Preds: query.MustPredSet(query.Pred{Stream: 0, Attr: "x", Range: query.Range{Lo: 0, Hi: 0.5}})}
	f := q.Fragment(3)
	for name, retract := range map[string]func(r *Registry){
		"Prune": func(r *Registry) { r.Prune(func(ad Ad) bool { return ad.QueryID%2 == 0 }) },
		"RetractPlan": func(r *Registry) {
			for _, id := range []int{1, 3} {
				owner := *q
				owner.ID = id
				leaf := query.Leaf(query.Input{Mask: 1})
				r.RetractPlan(&owner, query.Join(leaf, query.Leaf(query.Input{Mask: 2}), netgraph.NodeID(id), 1))
			}
		},
	} {
		r := NewRegistry()
		for n := 0; n < 4; n++ {
			r.Advertise(Ad{Sig: f.Sig, Streams: f.Streams, Preds: f.Preds, Node: netgraph.NodeID(n), QueryID: n})
		}
		backing := r.buckets["0|1"][:4]
		retract(r)
		kept := r.buckets["0|1"]
		if len(kept) != 2 || kept[0].QueryID != 0 || kept[1].QueryID != 2 {
			t.Fatalf("%s kept %+v, want queries 0 and 2", name, kept)
		}
		for i, ad := range backing[2:] {
			if ad.Sig != "" || ad.Streams != nil || !ad.Preds.Empty() {
				t.Errorf("%s: vacated slot %d still holds %+v", name, 2+i, ad)
			}
		}
	}
}

// standing builds a registry of at least n ads from random plans over the
// given stream range, and returns the deployments behind them.
func standing(rng *rand.Rand, r *Registry, n, lo, hi int) []deployment {
	var deps []deployment
	for id := lo*100000 + 1; r.Len() < n; id++ {
		d := randomDeployment(rng, id, hi-lo, 64, false)
		for i := range d.q.Sources {
			d.q.Sources[i] += query.StreamID(lo)
		}
		r.AdvertisePlan(d.q, d.plan)
		deps = append(deps, d)
	}
	return deps
}

func TestLookupAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	small := NewRegistry()
	deps := standing(rng, small, 64, 0, 8)
	large := small.Clone()
	standing(rng, large, 4096, 8, 40)

	// Counters bound but telemetry off, as in a server nobody watches.
	large.BindObs(obs.NewRegistry())

	// A query none of whose stream pairs was ever advertised.
	miss, _ := query.NewQuery(1, []query.StreamID{100, 101, 102, 103, 104, 105}, 0)
	rt := make(query.RateTable, 1<<6)
	if got := testing.AllocsPerRun(100, func() { large.InputsFor(miss, rt) }); got != 0 {
		t.Errorf("lookup matching nothing among %d ads: %v allocs/op, want 0", large.Len(), got)
	}

	// The same candidates in a 64-ad and a 4,096-ad registry cost the same.
	for _, d := range deps[:8] {
		rt := make(query.RateTable, 1<<uint(d.q.K()))
		n := len(small.InputsFor(d.q, rt))
		if n == 0 || n != len(large.InputsFor(d.q, rt)) {
			t.Fatalf("query %d: %d candidates in the small registry, %d in the large", d.q.ID, n, len(large.InputsFor(d.q, rt)))
		}
		a := testing.AllocsPerRun(50, func() { small.InputsFor(d.q, rt) })
		b := testing.AllocsPerRun(50, func() { large.InputsFor(d.q, rt) })
		if a != b {
			t.Errorf("query %d (%d candidates): %v allocs/op among %d ads, %v among %d", d.q.ID, n, a, small.Len(), b, large.Len())
		}
	}
}

func TestRetractPlanAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	small := NewRegistry()
	deps := standing(rng, small, 64, 0, 8)
	large := small.Clone()
	standing(rng, large, 4096, 8, 40)
	for _, d := range deps[:8] {
		cycle := func(r *Registry) func() {
			return func() {
				r.RetractPlan(d.q, d.plan)
				r.AdvertisePlan(d.q, d.plan)
			}
		}
		a := testing.AllocsPerRun(50, cycle(small))
		b := testing.AllocsPerRun(50, cycle(large))
		if a != b {
			t.Errorf("query %d: retract+advertise %v allocs/op among %d ads, %v among %d", d.q.ID, a, small.Len(), b, large.Len())
		}
	}
}

// TestRetractPlanAllocFree: retracting a predicated, projected plan
// allocates nothing. While another query owns the ads, every call probes
// each operator's bucket and compares full signatures but removes
// nothing, so it can be measured over and over.
func TestRetractPlanAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := NewRegistry()
	d := randomDeployment(rng, 1, 12, 8, true)
	for d.q.Preds.Len() < 2 || d.q.Proj.Empty() || d.q.K() < 4 {
		d = randomDeployment(rng, 1, 12, 8, true)
	}
	ops := r.AdvertisePlan(d.q, d.plan)
	stranger := *d.q
	stranger.ID = 2
	if n := r.RetractPlan(&stranger, d.plan); n != 0 {
		t.Fatalf("retracted %d ads of another query", n)
	}
	if a := testing.AllocsPerRun(100, func() { r.RetractPlan(&stranger, d.plan) }); a != 0 {
		t.Errorf("RetractPlan of %q: %v allocs per call, want 0", d.q.SigOf(d.q.All()), a)
	}
	if n := r.RetractPlan(d.q, d.plan); n != ops || r.Len() != 0 {
		t.Fatalf("owner retracted %d of %d ads, %d left", n, ops, r.Len())
	}
}

// TestConcurrentLookupAdvertiseRetract is the -race hammer: lookups of
// every kind run against advertisers that retract what they advertised
// and prune. Every writer cleans up after itself, so the registry must
// end empty.
func TestConcurrentLookupAdvertiseRetract(t *testing.T) {
	r := NewRegistry()
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var live []deployment // a window of standing plans, so lookups find matches
			for i := 0; i < 200; i++ {
				d := randomDeployment(rng, w*1000+i, 8, 8, true)
				r.AdvertisePlan(d.q, d.plan)
				if live = append(live, d); len(live) > 8 {
					r.RetractPlan(live[0].q, live[0].plan)
					live = live[1:]
				}
				if i%25 == 24 {
					r.Prune(func(ad Ad) bool { return ad.Node != 7 || ad.QueryID/1000 != w })
				}
			}
			for _, d := range live {
				r.RetractPlan(d.q, d.plan)
			}
		}(w)
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := randomDeployment(rng, -1, 8, 8, true).q
				rt := make(query.RateTable, 1<<uint(q.K()))
				for _, in := range r.InputsFor(q, rt) {
					if !in.Derived {
						t.Errorf("bad input %+v", in)
					}
				}
				r.Lookup(q.SigOf(3))
				if i%64 == 0 {
					r.All()
					r.Len()
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if r.Len() != 0 || len(r.buckets) != 0 {
		t.Errorf("after every writer retracted: Len %d, %d buckets", r.Len(), len(r.buckets))
	}
}

// TestChurnedRegistryMatchesFresh: 10,000 plans advertised and retracted
// around a standing population, sixteen in flight at a time, rebuild the
// bucket map along the way, and leave a registry that answers InputsFor,
// Len and All exactly like a fresh one holding only the standing ads.
func TestChurnedRegistryMatchesFresh(t *testing.T) {
	const streams, nodes = 9, 6
	rng := rand.New(rand.NewSource(34))
	churned, fresh := NewRegistry(), NewRegistry()
	for i := 0; i < 40; i++ {
		d := randomDeployment(rng, i, streams, nodes, true)
		churned.AdvertisePlan(d.q, d.plan)
		fresh.AdvertisePlan(d.q, d.plan)
	}
	first := reflect.ValueOf(churned.buckets).UnsafePointer()
	var inFlight []deployment
	for i := 0; i < 10_000; i++ {
		d := randomDeployment(rng, 1000+i, streams, nodes, true)
		churned.AdvertisePlan(d.q, d.plan)
		if inFlight = append(inFlight, d); len(inFlight) > 16 {
			churned.RetractPlan(inFlight[0].q, inFlight[0].plan)
			inFlight = inFlight[1:]
		}
	}
	for _, d := range inFlight {
		churned.RetractPlan(d.q, d.plan)
	}
	if reflect.ValueOf(churned.buckets).UnsafePointer() == first {
		t.Fatal("vacuous: the bucket map was never rebuilt")
	}
	if churned.Len() != fresh.Len() || !reflect.DeepEqual(churned.All(), fresh.All()) {
		t.Fatalf("churned registry holds %d ads, fresh %d, or they differ", churned.Len(), fresh.Len())
	}
	offered := 0
	for i := 0; i < 200; i++ {
		q := randomDeployment(rng, 20_000+i, streams, nodes, true).q
		rt := make(query.RateTable, 1<<uint(q.K()))
		for m := range rt {
			rt[m] = float64(m) + 0.5
		}
		got, want := churned.InputsFor(q, rt), fresh.InputsFor(q, rt)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d:\n got %+v\nwant %+v", i, got, want)
		}
		offered += len(got)
	}
	if offered < 200 {
		t.Fatalf("vacuous: 200 lookups offered %d inputs", offered)
	}
}
