package engine

import (
	"strings"
	"testing"

	"hnp/internal/ads"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// idleNode returns a node that hosts no operator, source or sink of the
// test engine, so failing it touches no query.
func (e testEngine) idleNode(t *testing.T) netgraph.NodeID {
	t.Helper()
	busy := map[netgraph.NodeID]bool{e.sink: true}
	for i := 0; i < e.Catalog.NumStreams(); i++ {
		busy[e.Catalog.Stream(query.StreamID(i)).Source] = true
	}
	for _, qid := range e.RT.DeployedQueries() {
		for _, op := range e.RT.DeployedPlan(qid).Operators() {
			busy[op.Loc] = true
		}
	}
	for v := e.Graph.NumNodes() - 1; v >= 0; v-- {
		if !busy[netgraph.NodeID(v)] {
			return netgraph.NodeID(v)
		}
	}
	t.Fatal("every node is busy")
	return -1
}

// reprice doubles one link's cost on the graph directly, behind every
// snapshot's back.
func (e testEngine) reprice(t *testing.T) {
	t.Helper()
	l := e.Graph.Links()[0]
	if err := e.Graph.SetLinkCost(l.A, l.B, 2*l.Cost); err != nil {
		t.Fatal(err)
	}
}

// orphanAd advertises a join of S2 and S3 that no deployment created.
func orphanAd(at netgraph.NodeID) ads.Ad {
	streams := []query.StreamID{2, 3}
	return ads.Ad{Sig: query.SigOf(streams), Streams: streams, Node: at, Rate: 1, QueryID: 99}
}

// A rejoin the hierarchy refuses must leave the node down: liveness is
// hierarchy membership, so a refusal has no second record to strand.
func TestRecoverNodeRefusedLeavesNodeDown(t *testing.T) {
	e := newTestEngine(t, 3, 100)
	e.start(t, AlgoTopDown, e.sink, 0, 1)
	v := e.idleNode(t)
	if _, err := e.FailNode(v, nil); err != nil {
		t.Fatal(err)
	}
	e.audit(t, "fail node")

	e.reprice(t)
	if err := e.RecoverNode(v); err == nil || !strings.Contains(err.Error(), "stale path snapshot") {
		t.Fatalf("rejoin against a stale snapshot: %v, want the hierarchy's refusal", err)
	}
	if e.Live(v) {
		t.Fatal("refused node reads live")
	}
	// An empty batch is the engine's refresh of both sides' snapshots.
	if err := e.UpdateLinkCosts(); err != nil {
		t.Fatal(err)
	}
	e.audit(t, "refused rejoin")
	if err := e.RecoverNode(v); err != nil {
		t.Fatal(err)
	}
	if !e.Live(v) {
		t.Fatal("rejoined node reads down")
	}
	e.audit(t, "rejoin")
}

// TestAuditReports breaks one tie between the engine's parts at a time,
// behind the engine's back, and holds Audit to the clause that names it.
func TestAuditReports(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		breakIt    func(t *testing.T, e testEngine, d Deployment)
	}{
		// The planning side's staleness is the hierarchy's own invariant.
		{"stale planning snapshot", "hierarchy: path snapshot stale", func(t *testing.T, e testEngine, _ Deployment) {
			e.reprice(t)
		}},
		{"stale runtime snapshot", "runtime cost snapshot is stale", func(t *testing.T, e testEngine, _ Deployment) {
			e.reprice(t)
			e.Refresh() // the planning side only
		}},
		{"ledger drift", "load ledger drift at node", func(t *testing.T, e testEngine, d Deployment) {
			e.tracker.AddPlan(d.Plan) // booked twice
		}},
		{"ledger residue", "no deployed plan loads", func(t *testing.T, e testEngine, d Deployment) {
			if err := e.RT.Undeploy(d.Query.ID); err != nil {
				t.Fatal(err)
			}
		}},
		{"advertisement without an operator", "names an operator the runtime does not host", func(t *testing.T, e testEngine, _ Deployment) {
			e.Registry.Advertise(orphanAd(e.sink))
		}},
		{"advertisement on a dead node", "survives on a dead node", func(t *testing.T, e testEngine, _ Deployment) {
			v := e.idleNode(t)
			if _, err := e.FailNode(v, nil); err != nil {
				t.Fatal(err)
			}
			e.Registry.Advertise(orphanAd(v))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, 3, 100)
			d := e.start(t, AlgoTopDown, e.sink, 0, 1)
			tc.breakIt(t, e, d)
			if err := e.Audit(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Audit = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
