package core

import (
	"math/rand"
	"strings"
	"testing"

	"hnp/internal/ads"
	"hnp/internal/hierarchy"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/workload"
)

func explainWorld(t *testing.T) (*hierarchy.Hierarchy, *workload.Workload) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	g := netgraph.MustTransitStub(64, rng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	h, err := hierarchy.Build(g, paths, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(workload.Default(12, 10), 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	return h, w
}

// TestTraceTotalsMatchAccounting is the -explain invariant: summing the
// examined-candidate counts over the trace must reproduce the Result's
// search-space accounting exactly, for both hierarchical algorithms, with
// and without reuse.
func TestTraceTotalsMatchAccounting(t *testing.T) {
	h, w := explainWorld(t)
	for _, reuse := range []bool{false, true} {
		var reg *ads.Registry
		if reuse {
			reg = ads.NewRegistry()
		}
		for _, q := range w.Queries {
			td, err := TopDown(h, w.Catalog, q, reg)
			if err != nil {
				t.Fatal(err)
			}
			bu, err := BottomUpOpts(h, w.Catalog, q, reg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name string
				res  Result
			}{{"top-down", td}, {"bottom-up", bu}} {
				plans, searches := c.res.TraceTotals()
				if !sameCount(plans, c.res.PlansConsidered) {
					t.Fatalf("%s (reuse=%v) q%d: trace plans %g != PlansConsidered %g",
						c.name, reuse, q.ID, plans, c.res.PlansConsidered)
				}
				if searches != c.res.ClustersPlanned {
					t.Fatalf("%s (reuse=%v) q%d: trace searches %d != ClustersPlanned %d",
						c.name, reuse, q.ID, searches, c.res.ClustersPlanned)
				}
			}
			if reg != nil {
				reg.AdvertisePlan(q, td.Plan)
			}
		}
	}
}

func TestExplainRendering(t *testing.T) {
	h, w := explainWorld(t)
	q := w.Queries[0]
	res, err := TopDown(h, w.Catalog, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Explain()
	for _, want := range []string{"level", "examined", "candidates", "totals:", "consistent"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "MISMATCH") {
		t.Fatalf("explain reports accounting mismatch:\n%s", out)
	}
	// A Result without a trace still renders.
	empty := Result{}
	if got := empty.Explain(); !strings.Contains(got, "no planning trace") {
		t.Fatalf("empty explain = %q", got)
	}
}

// TestPlannerObsRecords checks the per-algorithm metrics land in the
// Options.Obs registry and agree with the Result accounting.
func TestPlannerObsRecords(t *testing.T) {
	prev := obs.Enabled.Load()
	obs.Enable()
	defer obs.Enabled.Store(prev)

	h, w := explainWorld(t)
	reg := obs.NewRegistry()
	q := w.Queries[1]
	td, err := TopDownOpts(h, w.Catalog, q, nil, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	bu, err := BottomUpOpts(h, w.Catalog, q, nil, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Gauge("core.topdown.plans_considered"); got != td.PlansConsidered {
		t.Fatalf("topdown plans gauge %g != %g", got, td.PlansConsidered)
	}
	if got := snap.Counter("core.topdown.clusters_planned"); got != int64(td.ClustersPlanned) {
		t.Fatalf("topdown clusters %d != %d", got, td.ClustersPlanned)
	}
	if got := snap.Gauge("core.bottomup.plans_considered"); got != bu.PlansConsidered {
		t.Fatalf("bottomup plans gauge %g != %g", got, bu.PlansConsidered)
	}
	if snap.Counter("core.topdown.plan.calls") != 1 || snap.Counter("core.bottomup.plan.calls") != 1 {
		t.Fatal("plan spans not recorded")
	}
	if snap.Histograms["core.topdown.level_seconds"].Count != int64(td.ClustersPlanned) {
		t.Fatalf("level span count %d != clusters %d",
			snap.Histograms["core.topdown.level_seconds"].Count, td.ClustersPlanned)
	}
}
