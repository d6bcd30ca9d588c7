package load

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
)

func samplePlan() *query.PlanNode {
	l0 := query.Leaf(query.Input{Mask: 1, Rate: 10, Loc: 0, Sig: "0"})
	l1 := query.Leaf(query.Input{Mask: 2, Rate: 20, Loc: 4, Sig: "1"})
	j := query.Join(l0, l1, 2, 5)
	l2 := query.Leaf(query.Input{Mask: 4, Rate: 7, Loc: 6, Sig: "2"})
	return query.Join(j, l2, 2, 1)
}

func TestAddRemovePlan(t *testing.T) {
	tr := NewTracker()
	p := samplePlan()
	tr.AddPlan(p)
	// Node 2 hosts both joins: inputs 10+20 and 5+7.
	if got := tr.Load(2); math.Abs(got-42) > 1e-9 {
		t.Errorf("Load(2) = %g, want 42", got)
	}
	if tr.Load(0) != 0 {
		t.Error("leaf node accrued load")
	}
	tr.RemovePlan(p)
	if tr.Load(2) != 0 {
		t.Errorf("load not released: %g", tr.Load(2))
	}
}

func TestDerivedLeafAddsNothing(t *testing.T) {
	tr := NewTracker()
	d := query.Leaf(query.Input{Mask: 3, Rate: 5, Loc: 1, Derived: true, Sig: "0|1"})
	l2 := query.Leaf(query.Input{Mask: 4, Rate: 7, Loc: 6, Sig: "2"})
	p := query.Join(d, l2, 3, 1)
	tr.AddPlan(p)
	if tr.Load(1) != 0 {
		t.Error("derived leaf charged its producer again")
	}
	if got := tr.Load(3); math.Abs(got-12) > 1e-9 {
		t.Errorf("Load(3) = %g, want 12", got)
	}
}

// movedPlan is samplePlan with its top join (inputs 5+7) moved from node
// 2 to node 3; the bottom join stays on node 2.
func movedPlan() *query.PlanNode {
	l0 := query.Leaf(query.Input{Mask: 1, Rate: 10, Loc: 0, Sig: "0"})
	l1 := query.Leaf(query.Input{Mask: 2, Rate: 20, Loc: 4, Sig: "1"})
	j := query.Join(l0, l1, 2, 5)
	l2 := query.Leaf(query.Input{Mask: 4, Rate: 7, Loc: 6, Sig: "2"})
	return query.Join(j, l2, 3, 1)
}

// Replace must equal the remove-then-add outcome, and cancel-to-zero
// entries must leave the ledger (no float dust on unchanged nodes).
func TestReplaceMatchesRecompute(t *testing.T) {
	tr := NewTracker()
	old, new := samplePlan(), movedPlan()
	tr.AddPlan(old)
	tr.Replace(old, new)

	// The ledger now equals a fresh AddPlan of the new plan.
	want := NewTracker()
	want.AddPlan(new)
	got, exp := tr.Snapshot(), want.Snapshot()
	if len(got) != len(exp) {
		t.Fatalf("ledger %v, recompute %v", got, exp)
	}
	for v, r := range exp {
		if math.Abs(got[v]-r) > 1e-9 {
			t.Errorf("Load(%d) = %g, recompute %g", v, got[v], r)
		}
	}

	// Reversing the move cancels node 3 exactly: the entry is deleted,
	// not left as ±1e-16 residue.
	tr.Replace(new, old)
	if _, ok := tr.Snapshot()[3]; ok {
		t.Error("cancelled node 3 still in the ledger")
	}
}

// A reader racing Replace never sees a kept operator's load missing: the
// bottom join (inputs 10+20) stays on node 2 through every swap, so
// Load(2) never reads below 30.
func TestReplaceKeepsKeptLoad(t *testing.T) {
	tr := NewTracker()
	a, b := samplePlan(), movedPlan()
	tr.AddPlan(a)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			tr.Replace(a, b)
			tr.Replace(b, a)
		}
	}()
	for {
		select {
		case <-done:
			if got := tr.Load(2); math.Abs(got-42) > 1e-9 {
				t.Errorf("Load(2) = %g after the swaps, want 42", got)
			}
			return
		default:
		}
		if got := tr.Load(2); got < 30-1e-9 {
			t.Fatalf("Load(2) = %g mid-swap, below the kept join's 30", got)
		}
	}
}

// Snapshot is a copy: mutating it must not touch the tracker.
func TestSnapshotIsolated(t *testing.T) {
	tr := NewTracker()
	tr.AddPlan(samplePlan()) // node 2 carries 42
	s := tr.Snapshot()
	s[2] = 999
	if got := tr.Load(2); got != 42 {
		t.Errorf("snapshot mutation leaked: Load(2) = %g", got)
	}
}

// Two trackers fed the same plans publish the same total to the last bit:
// the sum runs in node order, not in the order a map happens to iterate.
func TestPublishedTotalIsOrderIndependent(t *testing.T) {
	prev := obs.Enabled.Load()
	obs.Enable()
	defer obs.Enabled.Store(prev)
	rng := rand.New(rand.NewSource(1))
	var plans []*query.PlanNode
	for i := 0; i < 60; i++ {
		leaf := func(m query.Mask) *query.PlanNode {
			return query.Leaf(query.Input{Mask: m, Rate: rng.ExpFloat64() * 37, Loc: netgraph.NodeID(rng.Intn(64))})
		}
		j := query.Join(leaf(1), leaf(2), netgraph.NodeID(rng.Intn(64)), rng.Float64())
		plans = append(plans, query.Join(j, leaf(4), netgraph.NodeID(rng.Intn(64)), rng.Float64()))
	}
	var totals [2][]uint64
	for r := range totals {
		tr, reg := NewTracker(), obs.NewRegistry()
		tr.BindObs(reg)
		for i, p := range plans {
			tr.AddPlan(p)
			if i >= 20 {
				tr.RemovePlan(plans[i-20])
			}
			totals[r] = append(totals[r], math.Float64bits(reg.Gauge("load.total_rate").Value()))
		}
	}
	if !slices.Equal(totals[0], totals[1]) {
		t.Error("equal ledgers published different load.total_rate bits")
	}
}
