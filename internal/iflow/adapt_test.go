package iflow

import "testing"

func TestUpdateLinkCostRefreshesRouting(t *testing.T) {
	w := makeTestWorld(t, 8)
	rt := New(w.g, DefaultConfig(), 4)
	links := w.g.Links()
	l := links[0]
	before := rt.Cost.Dist(l.A, l.B)
	if err := rt.UpdateLinkCost(l.A, l.B, l.Cost*100); err != nil {
		t.Fatal(err)
	}
	after := rt.Cost.Dist(l.A, l.B)
	if after < before {
		t.Errorf("cost %g -> %g after 100x link price", before, after)
	}
	if err := rt.UpdateLinkCost(l.A, l.B, -1); err == nil {
		t.Error("negative cost accepted")
	}
}

// A batched update must land every link's new price in one snapshot
// refresh, and a bad entry must not abort the rest of the batch or leave
// routing stale.
func TestUpdateLinkCostsBatch(t *testing.T) {
	w := makeTestWorld(t, 11)
	rt := New(w.g, DefaultConfig(), 14)
	links := w.g.Links()
	batch := []LinkCostUpdate{
		{A: links[0].A, B: links[0].B, Cost: links[0].Cost * 50},
		{A: links[1].A, B: links[1].B, Cost: links[1].Cost * 50},
		{A: links[2].A, B: links[2].B, Cost: links[2].Cost * 50},
	}
	verBefore := w.g.Version()
	if err := rt.UpdateLinkCosts(batch); err != nil {
		t.Fatal(err)
	}
	if w.g.Version() == verBefore {
		t.Error("batch applied no graph mutation")
	}
	if rt.Cost.StaleFor(w.g) {
		t.Error("cost paths stale after batched update")
	}
	for _, u := range batch {
		single := New(w.g, DefaultConfig(), 14)
		if got := single.Cost.Dist(u.A, u.B); got != rt.Cost.Dist(u.A, u.B) {
			t.Errorf("batched distance %d-%d = %g, fresh recompute %g", u.A, u.B, rt.Cost.Dist(u.A, u.B), got)
		}
	}

	// A bad entry surfaces as an error, but the valid entries before and
	// after it are applied and the snapshot still refreshed.
	bad := []LinkCostUpdate{
		{A: links[3].A, B: links[3].B, Cost: links[3].Cost * 10},
		{A: links[4].A, B: links[4].B, Cost: -1},
		{A: links[5].A, B: links[5].B, Cost: links[5].Cost * 10},
	}
	if err := rt.UpdateLinkCosts(bad); err == nil {
		t.Error("negative cost accepted in batch")
	}
	if rt.Cost.StaleFor(w.g) {
		t.Error("cost paths stale after failed batch")
	}
}
