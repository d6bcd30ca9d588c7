package ads

import (
	"reflect"
	"testing"

	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
)

func setup() (*query.Catalog, *query.Query, query.RateTable) {
	cat := query.NewCatalog(0.1)
	a := cat.Add("A", 10, 0)
	b := cat.Add("B", 20, 1)
	c := cat.Add("C", 5, 2)
	q, err := query.NewQuery(1, []query.StreamID{a, b, c}, 7)
	if err != nil {
		panic(err)
	}
	return cat, q, query.BuildRates(cat, q)
}

func TestAdvertiseDedup(t *testing.T) {
	r := NewRegistry()
	ad := Ad{Sig: "0|1", Streams: []query.StreamID{0, 1}, Node: 3, Rate: 20, QueryID: 1}
	if !r.Advertise(ad) {
		t.Error("first advertise rejected")
	}
	if r.Advertise(ad) {
		t.Error("duplicate advertise accepted")
	}
	other := ad
	other.Node = 4
	if !r.Advertise(other) {
		t.Error("same sig at new node rejected")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
	if got := r.Lookup("0|1"); len(got) != 2 {
		t.Errorf("Lookup = %v", got)
	}
	if got := r.Lookup("9"); got != nil {
		t.Errorf("Lookup missing sig = %v", got)
	}
}

func TestAllDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Advertise(Ad{Sig: "2|3", Node: 9})
	r.Advertise(Ad{Sig: "0|1", Node: 5})
	r.Advertise(Ad{Sig: "0|1", Node: 2})
	all := r.All()
	if len(all) != 3 {
		t.Fatalf("All len = %d", len(all))
	}
	if all[0].Sig != "0|1" || all[0].Node != 2 || all[1].Node != 5 || all[2].Sig != "2|3" {
		t.Errorf("All order wrong: %v", all)
	}
}

func TestInputsFor(t *testing.T) {
	_, q, rt := setup()
	r := NewRegistry()
	// Usable: covers streams {0,1} of q.
	r.Advertise(Ad{Sig: query.SigOf([]query.StreamID{0, 1}), Streams: []query.StreamID{0, 1}, Node: 4, Rate: 99})
	// Skipped: single stream.
	r.Advertise(Ad{Sig: "2", Streams: []query.StreamID{2}, Node: 4, Rate: 5})
	// Skipped: stream 9 not in query.
	r.Advertise(Ad{Sig: "0|9", Streams: []query.StreamID{0, 9}, Node: 4, Rate: 5})
	ins := r.InputsFor(q, rt)
	if len(ins) != 1 {
		t.Fatalf("InputsFor = %v", ins)
	}
	in := ins[0]
	if !in.Derived || in.Loc != 4 || in.Mask != 0b011 {
		t.Errorf("input = %+v", in)
	}
	// Rate must come from the rate table, not the ad.
	if in.Rate != rt.Rate(0b011) {
		t.Errorf("rate = %g, want %g", in.Rate, rt.Rate(0b011))
	}
}

func TestAdvertisePlan(t *testing.T) {
	_, q, rt := setup()
	l0 := query.Leaf(query.Input{Mask: 0b001, Rate: rt.Rate(0b001), Loc: 0, Sig: q.SigOf(0b001)})
	l1 := query.Leaf(query.Input{Mask: 0b010, Rate: rt.Rate(0b010), Loc: 1, Sig: q.SigOf(0b010)})
	l2 := query.Leaf(query.Input{Mask: 0b100, Rate: rt.Rate(0b100), Loc: 2, Sig: q.SigOf(0b100)})
	j1 := query.Join(l0, l1, 3, rt.Rate(0b011))
	root := query.Join(j1, l2, 5, rt.Rate(0b111))

	r := NewRegistry()
	if added := r.AdvertisePlan(q, root); added != 2 {
		t.Errorf("AdvertisePlan added %d, want 2", added)
	}
	if got := r.Lookup(q.SigOf(0b011)); len(got) != 1 || got[0].Node != 3 {
		t.Errorf("sub-join ad = %v", got)
	}
	if got := r.Lookup(q.SigOf(0b111)); len(got) != 1 || got[0].Node != 5 {
		t.Errorf("root ad = %v", got)
	}
	// Re-advertising the same plan adds nothing.
	if added := r.AdvertisePlan(q, root); added != 0 {
		t.Errorf("re-advertise added %d", added)
	}
}

func TestPrune(t *testing.T) {
	r := NewRegistry()
	ads := []Ad{
		{Sig: "0|1", Streams: []query.StreamID{0, 1}, Node: 3, Rate: 20},
		{Sig: "0|1", Streams: []query.StreamID{0, 1}, Node: 4, Rate: 20},
		{Sig: "1|2", Streams: []query.StreamID{1, 2}, Node: 3, Rate: 5},
		{Sig: "0|1|2", Streams: []query.StreamID{0, 1, 2}, Node: 5, Rate: 2},
	}
	for _, ad := range ads {
		if !r.Advertise(ad) {
			t.Fatalf("advertise %+v rejected", ad)
		}
	}
	// Retract everything hosted on node 3 (as after that node fails).
	if got := r.Prune(func(ad Ad) bool { return ad.Node != 3 }); got != 2 {
		t.Errorf("Prune removed %d, want 2", got)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d after prune, want 2", r.Len())
	}
	for _, ad := range r.All() {
		if ad.Node == 3 {
			t.Errorf("pruned ad survives: %+v", ad)
		}
	}
	// The fully retracted signature's bucket is gone, not empty.
	if got := r.Lookup("1|2"); got != nil {
		t.Errorf("Lookup of fully pruned sig = %v", got)
	}
	// Re-advertising after a prune works (no tombstones).
	if !r.Advertise(ads[2]) {
		t.Error("re-advertise after prune rejected")
	}
	// Pruning nothing removes nothing.
	if got := r.Prune(func(Ad) bool { return true }); got != 0 {
		t.Errorf("no-op prune removed %d", got)
	}
	// Pruning everything empties the registry.
	if got := r.Prune(func(Ad) bool { return false }); got != 3 {
		t.Errorf("full prune removed %d, want 3", got)
	}
	if r.Len() != 0 || len(r.All()) != 0 {
		t.Errorf("registry not empty after full prune: len=%d all=%v", r.Len(), r.All())
	}
}

// Retract names one node: of one signature advertised at two nodes under
// two owners, it removes the named node's ad whoever owns it, leaves the
// other, counts the removal in ads.pruned, and allocates nothing — also
// when, called again, it finds nothing to remove.
func TestRetractNamesOneNode(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRegistry()
	r.BindObs(reg)
	const sig = "0|1#0.a[0,0.5)"
	n1, n2 := netgraph.NodeID(3), netgraph.NodeID(4)
	r.Advertise(Ad{Sig: sig, Streams: []query.StreamID{0, 1}, Node: n1, QueryID: 1})
	r.Advertise(Ad{Sig: sig, Streams: []query.StreamID{0, 1}, Node: n2, QueryID: 2})
	r.Retract(sig, n2)
	if got := r.Lookup(sig); len(got) != 1 || got[0].Node != n1 || got[0].QueryID != 1 {
		t.Fatalf("after Retract(%s, %d): %+v, want only node %d's ad", sig, n2, got, n1)
	}
	if got := reg.Counter("ads.pruned").Value(); got != 1 {
		t.Errorf("ads.pruned = %d, want 1", got)
	}
	if a := testing.AllocsPerRun(100, func() { r.Retract(sig, n2) }); a != 0 {
		t.Errorf("Retract: %v allocs per call, want 0", a)
	}
	if r.Len() != 1 || reg.Counter("ads.pruned").Value() != 1 {
		t.Errorf("a repeated Retract removed something: len %d, ads.pruned %d", r.Len(), reg.Counter("ads.pruned").Value())
	}
	r.Retract(sig, n1)
	if r.Len() != 0 || reg.Counter("ads.pruned").Value() != 2 {
		t.Errorf("Retract of the last ad: len %d, ads.pruned %d", r.Len(), reg.Counter("ads.pruned").Value())
	}
}

// A clone shares no bucket with its original: pruning either side zeroes
// only its own vacated tail, so the other keeps every ad, in advertise
// order, and its own count.
func TestCloneIsIndependent(t *testing.T) {
	r := NewRegistry()
	ads := []Ad{
		{Sig: "0|1", Streams: []query.StreamID{0, 1}, Node: 4, Rate: 20},
		{Sig: "0|1", Streams: []query.StreamID{0, 1}, Node: 3, Rate: 20},
		{Sig: "0|1#p", Streams: []query.StreamID{0, 1}, Node: 2, Rate: 10},
		{Sig: "1|2", Streams: []query.StreamID{1, 2}, Node: 3, Rate: 5},
	}
	for _, ad := range ads {
		r.Advertise(ad)
	}
	c := r.Clone()
	if c.Len() != r.Len() || !reflect.DeepEqual(c.buckets, r.buckets) {
		t.Fatalf("clone differs: %v vs %v", c.buckets, r.buckets)
	}
	if got := c.Prune(func(ad Ad) bool { return ad.Node != 4 }); got != 1 {
		t.Fatalf("clone prune removed %d, want 1", got)
	}
	if got := r.Lookup("0|1"); !reflect.DeepEqual(got, ads[:2]) {
		t.Errorf("pruning the clone reached the original: %v", got)
	}
	if r.Len() != len(ads) || c.Len() != len(ads)-1 {
		t.Errorf("Len original %d clone %d, want %d and %d", r.Len(), c.Len(), len(ads), len(ads)-1)
	}
	r.Prune(func(Ad) bool { return false })
	if got := c.Lookup("0|1#p"); !reflect.DeepEqual(got, ads[2:3]) {
		t.Errorf("pruning the original reached the clone: %v", got)
	}
}
