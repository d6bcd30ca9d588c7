package hierarchy

import (
	"math/rand"
	"testing"

	"hnp/internal/netgraph"
	"hnp/internal/obs"
)

// TestRebindRowsMatchesFull drives random link churn through two
// identically built hierarchies — one maintained with full Rebind, one
// with delta RebindRows fed by incremental path refreshes — and asserts
// every cluster diameter, coordinator, and rep-table entry stays
// identical, while the delta side re-audits strictly fewer clusters.
func TestRebindRowsMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := netgraph.MustTransitStub(64, rng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	full := MustBuild(g, paths, 4, rand.New(rand.NewSource(52)))
	delta := MustBuild(g, paths, 4, rand.New(rand.NewSource(52)))

	reg := obs.NewRegistry()
	delta.BindObs(reg)
	audited := reg.Counter("hierarchy.rebind_clusters_reaudited")

	// Churn only links whose drift stays local (a leaf node's only link
	// legitimately shifts every row's column to it and must recompute
	// fully): probe each link with a mild wiggle and keep the ones an
	// incremental refresh can absorb. Probes are reverted, and reverts
	// coalesce out of the delta log.
	var localLinks []netgraph.Link
	for _, l := range g.Links() {
		c, _ := g.LinkCost(l.A, l.B)
		if err := g.SetLinkCost(l.A, l.B, c*1.05); err != nil {
			t.Fatal(err)
		}
		_, stats := paths.RefreshFrom(g, nil)
		if err := g.SetLinkCost(l.A, l.B, c); err != nil {
			t.Fatal(err)
		}
		if stats.Mode == netgraph.RefreshIncremental && stats.RowsRecomputed > 0 {
			localLinks = append(localLinks, l)
		}
	}
	if len(localLinks) < 3 {
		t.Fatalf("topology has only %d links with local drift", len(localLinks))
	}

	cur, spare := paths, (*netgraph.Paths)(nil)
	churn := rand.New(rand.NewSource(53))
	totalAudited := int64(0)
	for step := 0; step < 30; step++ {
		l := localLinks[churn.Intn(len(localLinks))]
		c, _ := g.LinkCost(l.A, l.B)
		if err := g.SetLinkCost(l.A, l.B, c*(0.9+churn.Float64()*0.2)); err != nil {
			t.Fatal(err)
		}
		old := cur
		next, stats := cur.RefreshFrom(g, spare)
		cur, spare = next, old

		if err := full.RebindRows(g.ShortestPaths(netgraph.MetricCost), nil); err != nil {
			t.Fatal(err)
		}
		before := audited.Value()
		if err := delta.RebindRows(cur, stats.Rows); err != nil {
			t.Fatal(err)
		}
		totalAudited += audited.Value() - before

		if full.Height() != delta.Height() {
			t.Fatalf("step %d: heights diverged: %d vs %d", step, full.Height(), delta.Height())
		}
		for li := 1; li <= full.Height(); li++ {
			fl, dl := full.LevelAt(li), delta.LevelAt(li)
			if len(fl.Clusters) != len(dl.Clusters) {
				t.Fatalf("step %d level %d: cluster counts diverged", step, li)
			}
			for ci := range fl.Clusters {
				fc, dc := fl.Clusters[ci], dl.Clusters[ci]
				if fc.Coordinator != dc.Coordinator {
					t.Fatalf("step %d level %d cluster %d: coordinators diverged", step, li, ci)
				}
				if fc.Diameter != dc.Diameter {
					t.Fatalf("step %d level %d cluster %d: diameter %g (full) vs %g (delta)",
						step, li, ci, fc.Diameter, dc.Diameter)
				}
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			for li := 1; li <= full.Height(); li++ {
				if full.Rep(netgraph.NodeID(v), li) != delta.Rep(netgraph.NodeID(v), li) {
					t.Fatalf("step %d: rep(%d, %d) diverged", step, v, li)
				}
			}
		}
		if err := delta.CheckInvariants(); err != nil {
			t.Fatalf("step %d: delta-maintained hierarchy: %v", step, err)
		}
	}
	if maxAudit := int64(30 * delta.NumClusters()); totalAudited >= maxAudit {
		t.Errorf("delta rebind re-audited %d clusters, no better than full's %d", totalAudited, maxAudit)
	}
	deltas := reg.Counter("hierarchy.rebind_delta").Value()
	fulls := reg.Counter("hierarchy.rebind_full").Value()
	if deltas+fulls != 30 {
		t.Errorf("rebind counters = %d delta + %d full, want 30 total", deltas, fulls)
	}
	if deltas < 10 {
		t.Errorf("only %d of 30 mild-drift rebinds took the delta path", deltas)
	}
}
