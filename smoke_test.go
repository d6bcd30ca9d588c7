package hnp

import (
	"math/rand"
	"testing"

	"hnp/internal/netgraph"
	"hnp/internal/obs"
)

// TestTopologyRoundTripSmoke exercises the library end to end: a
// generated transit-stub topology is built into a System and queried, and
// the telemetry snapshot of that deployment must be non-trivial.
func TestTopologyRoundTripSmoke(t *testing.T) {
	prev := obs.Enabled.Load()
	EnableTelemetry()
	defer obs.Enabled.Store(prev)

	g, err := netgraph.TransitStub(netgraph.DefaultTransitStub(64), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(g, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	a := sys.AddStream("A", 40, 4)
	b := sys.AddStream("B", 30, 20)
	c := sys.AddStream("C", 25, 50)
	sys.SetSelectivity(a, b, 0.01)
	sys.SetSelectivity(b, c, 0.02)
	dep, err := deploy(sys)(sys.Plan([]StreamID{a, b, c}, 9, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	if dep.Cost <= 0 {
		t.Fatalf("deployment cost %g", dep.Cost)
	}

	snap := sys.Snapshot()
	if snap.Counter("core.topdown.clusters_planned") == 0 {
		t.Error("snapshot shows no planner activity")
	}
	if snap.Counter("ads.advertised") == 0 {
		t.Error("snapshot shows no advertisements from a deployed plan")
	}
	if snap.Counter("hierarchy.cover_misses") == 0 {
		t.Error("snapshot shows no cover-cache activity")
	}
	if snap.Gauge("load.total_rate") <= 0 {
		t.Error("snapshot shows no tracked load after deployment")
	}
	if snap.Histograms["core.topdown.plan.seconds"].Count == 0 {
		t.Error("snapshot shows no plan span")
	}
}
