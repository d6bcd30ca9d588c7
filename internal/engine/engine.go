package engine

import (
	"fmt"
	"math"

	"hnp/internal/adapt"
	"hnp/internal/ads"
	"hnp/internal/iflow"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// Engine is a System whose deployments run: it composes the planning
// half with the IFLOW runtime and keeps the advertisement registry, the
// load ledger, the path snapshots and the hierarchy in step with what the
// runtime hosts.
// It copies none of their state: the deployed queries and plans are the
// runtime's, a node is live while the hierarchy holds it, and the planning
// side's path snapshot is the hierarchy's. Every lifecycle step is one
// method here, so no client mirrors any of it:
//
//	Deploy            runtime deploy + System.Deploy (advertise, book, pin)
//	Undeploy          runtime undeploy + ledger remove + unpin
//	Migrate           runtime migrate + ledger Replace + advertise
//	FailNode          runtime crash + hierarchy leave + re-plan and redeploy
//	                  each affected query, rebook or drop it
//	RecoverNode       hierarchy rejoin
//	UpdateLinkCosts   graph + runtime snapshots, then System.Refresh
//	SetLiveRate       live taps of a stream (the catalog learns by calibration)
//	AttachController  adapt.New with Replan; it commits by Migrate, then OnMigrate
//	Audit             the invariants that tie the parts together
//
// An operator's advertisement is retracted as the runtime retires it, by
// whichever path (Runtime.OnRetire is Registry.Retract): nothing sweeps.
// Plan with the promoted Plan*/PlanQuery methods and hand the result to
// Deploy. An Engine runs on its runtime's single-threaded simulation clock
// and is not safe for concurrent use.
type Engine struct {
	*System
	RT *iflow.Runtime

	// OnMigrate, when set, observes every migration an attached controller
	// applies, after the engine has booked it.
	OnMigrate func(q *query.Query, old, fresh *query.PlanNode, rep iflow.MigrationReport)

	until float64
	stmts map[int]*prepared // by query ID, what each CQL-planned query pins
}

// NewEngine puts a runtime under a system. The runtime draws its tuple
// randomness from seed and records into the system's telemetry registry;
// until bounds the lifetime of every source the engine starts. It starts
// from a copy of the hierarchy's cost snapshot, so that an engine runs one
// all-pairs computation, not two.
func NewEngine(sys *System, cfg iflow.Config, seed int64, until float64) *Engine {
	cost := sys.Hierarchy.Paths().Clone()
	if cost.Metric() != netgraph.MetricCost {
		cost = sys.Graph.ShortestPaths(netgraph.MetricCost)
	}
	e := &Engine{System: sys, RT: iflow.NewWithCost(sys.Graph, cost, cfg, seed), until: until, stmts: map[int]*prepared{}}
	e.RT.BindObs(sys.Obs)
	e.RT.OnRetire = sys.Registry.Retract
	return e
}

// Live reports whether a node is up: a member of the hierarchy.
func (e *Engine) Live(v netgraph.NodeID) bool { return e.Hierarchy.Contains(v) }

// Deploy runs a planned query, then commits it with System.Deploy; a nil
// Plan (a provably empty query) runs and records nothing.
func (e *Engine) Deploy(d Deployment) error {
	if d.Plan == nil {
		return nil
	}
	if err := e.RT.Deploy(d.Query, d.Plan, e.Catalog, e.until); err != nil {
		return err
	}
	e.System.Deploy(d) // cannot fail: d.Plan is set
	if d.stmt != nil {
		e.stmts[d.Query.ID] = d.stmt
	}
	return nil
}

// Undeploy stops d's query in the plan it runs now (Migrate or a FailNode
// recovery may have replaced d.Plan) and returns how many advertisements
// died with it; a nil-Plan deployment the runtime does not run is a no-op.
//
// The two retraction rules are deliberately kept apart. Here an ad dies
// with its operator: the runtime reference-counts shared operators, so one
// another query reuses outlives its creator's undeploy and stays
// advertised, while one nobody holds is retracted as it retires, whoever
// created it. System.Undeploy has no runtime to ask and retracts by owner
// (ads.Registry.RetractPlan). Unifying them either way changes which ads
// planners are offered, and with that the chosen plans.
func (e *Engine) Undeploy(d Deployment) (int, error) {
	plan := e.RT.DeployedPlan(d.Query.ID)
	if plan == nil && d.Plan == nil {
		return 0, nil
	}
	before := e.Registry.Len()
	if err := e.RT.Undeploy(d.Query.ID); err != nil {
		return 0, err
	}
	e.drop(d.Query.ID, plan)
	return before - e.Registry.Len(), nil
}

// drop releases the books and the statement of a query no longer running plan.
func (e *Engine) drop(qid int, plan *query.PlanNode) {
	e.tracker.RemovePlan(plan)
	if p := e.stmts[qid]; p != nil {
		e.unpin(p)
		delete(e.stmts, qid)
	}
}

// Migrate replaces a deployed query's plan in place (iflow.Migrate:
// operators both plans share keep running) and rebooks it: the ledger
// swaps the old plan's booking for the new one's, and the new plan's
// operators are advertised.
func (e *Engine) Migrate(qid int, plan *query.PlanNode) (iflow.MigrationReport, error) {
	q, old := e.RT.DeployedQuery(qid), e.RT.DeployedPlan(qid)
	if q == nil {
		return iflow.MigrationReport{}, fmt.Errorf("engine: query %d is not deployed", qid)
	}
	rep, err := e.RT.Migrate(q, plan, e.Catalog, e.until)
	if err != nil {
		return rep, err
	}
	e.tracker.Replace(old, plan)
	e.Registry.AdvertisePlan(q, plan)
	return rep, nil
}

// Recovery names the queries a node failure touched.
type Recovery struct {
	// Affected lists every query that lost an operator or its sink;
	// Recovered the ones re-planned and running again; Failed the ones
	// left undeployed (dead source or sink, or no plan).
	Affected, Recovered, Failed []int
}

// FailNode crashes a node: its operators die, it leaves the hierarchy,
// and every affected query is torn down and re-planned with replan
// against the surviving network, in query ID order. Queries whose sink or
// a base source is down are refused before replan is asked. Recovered
// plans are advertised only once the whole batch is back up, so one
// recovery never builds on another's not-yet-settled operators.
func (e *Engine) FailNode(v netgraph.NodeID, replan adapt.ReplanFunc) (Recovery, error) {
	rec := Recovery{Affected: e.RT.FailNode(v)}
	if err := e.Hierarchy.RemoveNode(v); err != nil {
		return rec, fmt.Errorf("hierarchy rejected removal: %w", err)
	}
	for _, qid := range rec.Affected {
		// Undeploy first: the ads that die as its operators retire are
		// not on offer to the re-plan.
		q, old, stats := e.RT.DeployedQuery(qid), e.RT.DeployedPlan(qid), *e.RT.Sink(qid)
		if err := e.RT.Undeploy(qid); err != nil {
			return rec, fmt.Errorf("recovery aborted: %w", err)
		}
		fresh, err := e.replanLive(q, replan)
		if err == nil {
			err = e.RT.Deploy(q, fresh, e.Catalog, e.until)
		}
		if err != nil {
			rec.Failed = append(rec.Failed, qid)
			e.drop(qid, old)
			continue
		}
		s := e.RT.Sink(qid)
		s.Tuples += stats.Tuples
		s.Bytes += stats.Bytes
		s.LatencySum += stats.LatencySum
		e.tracker.Replace(old, fresh)
		rec.Recovered = append(rec.Recovered, qid)
	}
	for _, qid := range rec.Recovered {
		e.Registry.AdvertisePlan(e.RT.DeployedQuery(qid), e.RT.DeployedPlan(qid))
	}
	return rec, nil
}

// Down reports why q cannot run on the live network: its sink's node is
// down, or else the node of its first base source (in q.Sources order)
// that is. It returns nil when every endpoint is live.
func (e *Engine) Down(q *query.Query) error {
	if !e.Live(q.Sink) {
		return fmt.Errorf("sink node %d is down", q.Sink)
	}
	for _, sid := range q.Sources {
		if src := e.Catalog.Stream(sid).Source; !e.Live(src) {
			return fmt.Errorf("source node %d of stream %d is down", src, sid)
		}
	}
	return nil
}

// replanLive refuses a query that is Down, and otherwise asks replan.
func (e *Engine) replanLive(q *query.Query, replan adapt.ReplanFunc) (*query.PlanNode, error) {
	if err := e.Down(q); err != nil {
		return nil, err
	}
	return replan(q)
}

// RecoverNode brings a failed node back: it rejoins the hierarchy via the
// paper's join protocol and becomes usable for placements and sources.
func (e *Engine) RecoverNode(v netgraph.NodeID) error {
	if err := e.Hierarchy.AddNode(v); err != nil {
		return fmt.Errorf("hierarchy rejected rejoin: %w", err)
	}
	return nil
}

// UpdateLinkCosts changes link prices under the running system: the graph
// and the runtime's routing snapshots move first (one refresh for the
// whole batch), then the planning side's path snapshot and hierarchy
// follow through System.Refresh.
func (e *Engine) UpdateLinkCosts(batch ...iflow.LinkCostUpdate) error {
	err := e.RT.UpdateLinkCosts(batch)
	e.Refresh()
	return err
}

// SetLiveRate retunes every running tap of a base stream — the world
// changing under the system, like UpdateLinkCosts. The catalog is not
// touched: the planning model learns the new rate only through the
// controller's windowed calibration. It returns the number of taps
// retuned (deployments share them).
func (e *Engine) SetLiveRate(id query.StreamID, rate float64) (int, error) {
	type tap struct {
		sig  string
		node netgraph.NodeID
	}
	seen := map[tap]bool{}
	for _, qid := range e.RT.DeployedQueries() {
		q := e.RT.DeployedQuery(qid)
		for _, l := range e.RT.DeployedPlan(qid).Leaves() {
			if s, ok := q.BaseStream(l.Mask); l.In.Derived || !ok || s != id || seen[tap{l.In.Sig, l.Loc}] {
				continue
			}
			seen[tap{l.In.Sig, l.Loc}] = true
			if err := e.RT.SetSourceRate(l.In.Sig, l.Loc, rate); err != nil {
				return len(seen) - 1, err
			}
		}
	}
	return len(seen), nil
}

// Replan re-plans a deployed query: Top-Down against current (calibrated)
// conditions with the query's own advertisements withheld. Offered its
// own deployed root, Top-Down always "reuses" it — a plan that reads the
// stream the query already computes, which migrates to a physical no-op
// with predicted gain zero. Withholding them forces the planner to state
// how it would compute the query from base streams and OTHER queries'
// materialized intermediates — the comparison that surfaces real
// consolidation and re-placement wins.
func (e *Engine) Replan(q *query.Query) (*query.PlanNode, error) {
	reg := e.Registry.Clone()
	reg.Prune(func(ad ads.Ad) bool { return ad.QueryID != q.ID })
	res, err := e.PlanQuery(q, AlgoTopDown, reg)
	return res.Plan, err
}

// AttachController puts every query the runtime runs, now or later, under
// the closed-loop re-optimization controller, re-planning with Replan,
// and starts its control loop on the runtime's clock. The controller
// commits through Migrate, so the engine books a migration before
// OnMigrate sees it; migrations not the controller's do not reach
// OnMigrate.
func (e *Engine) AttachController(cfg adapt.Config) *adapt.Controller {
	ctl := adapt.New(e.RT, e.Catalog, e.Replan, cfg)
	ctl.BindObs(e.Obs)
	ctl.Commit = func(qid int, plan *query.PlanNode) (iflow.MigrationReport, error) {
		q, old := e.RT.DeployedQuery(qid), e.RT.DeployedPlan(qid)
		rep, err := e.Migrate(qid, plan)
		if err == nil && e.OnMigrate != nil {
			e.OnMigrate(q, old, plan, rep)
		}
		return rep, err
	}
	ctl.Run(e.until)
	return ctl
}

// Audit checks the invariants that tie the engine's parts together, after
// each layer's own: no layer holds a stale path snapshot, the incremental
// load ledger equals a from-scratch recompute over the plans the runtime
// runs, and every advertisement names a running operator on a live node.
// Each fact has one owner, so there is no copy to compare: the runtime
// holds the deployed set, hierarchy membership is liveness, the hierarchy
// holds the planning-side path snapshot. It holds after every lifecycle
// method returns.
func (e *Engine) Audit() error {
	if err := e.Hierarchy.CheckInvariants(); err != nil {
		return err
	}
	if err := e.RT.CheckInvariants(e.Live); err != nil {
		return err
	}

	for _, s := range []struct {
		name  string
		paths *netgraph.Paths
	}{
		{"hierarchy path", e.Hierarchy.Paths()},
		{"runtime cost", e.RT.Cost}, {"runtime delay", e.RT.Delay},
	} {
		if s.paths.StaleFor(e.Graph) {
			return fmt.Errorf("%s snapshot is stale for graph version %d", s.name, e.Graph.Version())
		}
	}

	// Rebooking (Tracker.Replace) must leave exactly the per-node load
	// that tearing the books down and re-adding every plan would — no
	// holes, no double counting, no residue.
	expect := map[netgraph.NodeID]float64{}
	for _, qid := range e.RT.DeployedQueries() {
		for _, op := range e.RT.DeployedPlan(qid).Operators() {
			expect[op.Loc] += op.InputRate()
		}
	}
	ledger := e.tracker.Snapshot()
	for v, r := range expect {
		if diff := math.Abs(ledger[v] - r); diff > 1e-6*math.Max(1, math.Abs(r)) {
			return fmt.Errorf("load ledger drift at node %d: ledger %g, recompute %g", v, ledger[v], r)
		}
	}
	for v, r := range ledger {
		if _, ok := expect[v]; !ok && math.Abs(r) > 1e-9 {
			return fmt.Errorf("load ledger books %g on node %d no deployed plan loads", r, v)
		}
	}

	for _, ad := range e.Registry.All() {
		if !e.Live(ad.Node) {
			return fmt.Errorf("advertisement %s@%d survives on a dead node", ad.Sig, ad.Node)
		}
		if e.RT.Operator(ad.Sig, ad.Node) == nil {
			return fmt.Errorf("advertisement %s@%d names an operator the runtime does not host", ad.Sig, ad.Node)
		}
	}
	return nil
}
