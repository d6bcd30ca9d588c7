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
// half with the IFLOW runtime (and, once attached, the adaptation
// controller) and keeps the advertisement registry, the load ledger, the
// path snapshots and the hierarchy in step with what the runtime hosts.
// It copies none of their state: the deployed queries and plans are the
// runtime's, a node is live while the hierarchy holds it, and the planning
// side's path snapshot is the hierarchy's. Every lifecycle step is one
// method here, so no client mirrors any of it:
//
//	Deploy            runtime deploy + advertise + ledger add
//	Undeploy          runtime undeploy + ledger remove + liveness prune
//	Migrate           runtime migrate + ledger delta + advertise + prune
//	FailNode          runtime crash + hierarchy leave + prune + recovery
//	RecoverNode       hierarchy rejoin
//	UpdateLinkCosts   graph + runtime snapshots, then System.Refresh
//	SetLiveRate       live taps of a stream (the catalog learns by calibration)
//	AttachController  adapt.New with the engine's re-planner and mirror
//	Audit             the invariants that tie the parts together
//
// Plan with the promoted Plan*/PlanQuery methods and hand the result to
// Deploy. The System's own Deploy*/Undeploy book planning-level state for
// systems that never run a tuple; on an Engine they would advertise
// operators nobody hosts, which Audit reports.
//
// An Engine runs on its runtime's single-threaded simulation clock and is
// not safe for concurrent use.
type Engine struct {
	*System
	RT *iflow.Runtime

	// OnMigrate, when set, observes every migration the attached
	// controller applies, after the engine has mirrored it.
	OnMigrate func(q *query.Query, old, fresh *query.PlanNode, rep iflow.MigrationReport)

	ctl   *adapt.Controller
	until float64
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
	e := &Engine{System: sys, RT: iflow.NewWithCost(sys.Graph, cost, cfg, seed), until: until}
	e.RT.BindObs(sys.Obs)
	return e
}

// DeployedPlan returns the plan a deployed query currently runs, nil for
// a query that is not deployed. The runtime holds the deployed set.
func (e *Engine) DeployedPlan(qid int) *query.PlanNode { return e.RT.DeployedPlan(qid) }

// Live reports whether a node is up: a member of the hierarchy.
func (e *Engine) Live(v netgraph.NodeID) bool { return e.Hierarchy.Contains(v) }

// Deploy starts a planned query: its operators come up in the runtime,
// are advertised for reuse and booked in the load ledger.
func (e *Engine) Deploy(d Deployment) error {
	if err := e.RT.Deploy(d.Query, d.Plan, e.Catalog, e.until); err != nil {
		return err
	}
	e.deployRecord(d.Query, d.Result)
	if e.ctl != nil {
		e.ctl.Track(d.Query, d.Plan)
	}
	return nil
}

// Undeploy stops a deployed query and retracts what died with it.
//
// The two retraction rules are deliberately kept apart. Here an
// advertisement dies when its operator does: the runtime reference-counts
// shared operators, so one that another query reuses outlives its
// creator's undeploy and must stay advertised, while an operator nobody
// holds anymore is gone whoever created it — hence the liveness prune.
// System.Undeploy has no runtime to ask and retracts by owner
// (ads.Registry.RetractPlan). Unifying them either way changes which
// advertisements planners are offered, and with that the chosen plans.
func (e *Engine) Undeploy(qid int) error {
	plan := e.RT.DeployedPlan(qid)
	if err := e.RT.Undeploy(qid); err != nil {
		return err
	}
	e.drop(qid, plan)
	e.pruneAds()
	return nil
}

// drop releases the books of a query that no longer runs plan.
func (e *Engine) drop(qid int, plan *query.PlanNode) {
	e.tracker.RemovePlan(plan)
	if e.ctl != nil {
		e.ctl.Untrack(qid)
	}
}

// Migrate replaces a deployed query's plan in place (iflow.Migrate:
// operators both plans share keep running) and mirrors the change.
func (e *Engine) Migrate(qid int, plan *query.PlanNode) (iflow.MigrationReport, error) {
	q := e.RT.DeployedQuery(qid)
	if q == nil {
		return iflow.MigrationReport{}, fmt.Errorf("engine: query %d is not deployed", qid)
	}
	rep, err := e.RT.Migrate(q, plan, e.Catalog, e.until)
	if err != nil {
		return rep, err
	}
	e.migrated(q, plan, rep)
	if e.ctl != nil {
		e.ctl.SetPlan(qid, plan)
	}
	return rep, nil
}

// migrated mirrors an applied migration: advertisements for the
// operators it created, retraction of the ones it retired, and the
// diff-aware ledger update.
func (e *Engine) migrated(q *query.Query, fresh *query.PlanNode, rep iflow.MigrationReport) {
	e.Registry.AdvertisePlan(q, fresh)
	e.pruneAds()
	e.tracker.ApplyDelta(rep.LoadDelta)
}

// pruneAds retracts every advertisement whose operator the runtime no
// longer hosts, so planners are never offered streams that stopped
// existing.
func (e *Engine) pruneAds() {
	e.Registry.Prune(func(ad ads.Ad) bool {
		return e.RT.Operator(ad.Sig, ad.Node) != nil
	})
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
// against the surviving network. Queries whose sink or a base source is
// down are refused before replan is asked. Recovered plans are advertised
// only once the whole batch is back up, so one recovery never builds on
// another's not-yet-settled operators.
func (e *Engine) FailNode(v netgraph.NodeID, replan iflow.ReplanFunc) (Recovery, error) {
	rec := Recovery{Affected: e.RT.FailNode(v)}
	if err := e.Hierarchy.RemoveNode(v); err != nil {
		return rec, fmt.Errorf("hierarchy rejected removal: %w", err)
	}
	e.pruneAds()
	if len(rec.Affected) == 0 {
		return rec, nil
	}
	// The ledger must release exactly what was booked, not the recovered
	// replacement RecoverQueries deploys.
	booked := make(map[int]*query.PlanNode, len(rec.Affected))
	for _, qid := range rec.Affected {
		booked[qid] = e.RT.DeployedPlan(qid)
	}
	var err error
	rec.Recovered, rec.Failed, err = e.RT.RecoverQueries(rec.Affected, e.Catalog,
		func(q *query.Query) (*query.PlanNode, error) {
			// The teardown preceding each re-plan orphans advertisements.
			e.pruneAds()
			if !e.Live(q.Sink) {
				return nil, fmt.Errorf("sink node %d is down", q.Sink)
			}
			for _, sid := range q.Sources {
				if src := e.Catalog.Stream(sid).Source; !e.Live(src) {
					return nil, fmt.Errorf("source node %d of stream %d is down", src, sid)
				}
			}
			return replan(q)
		}, e.until)
	if err != nil {
		return rec, fmt.Errorf("recovery aborted: %w", err)
	}
	for _, qid := range rec.Failed {
		e.drop(qid, booked[qid])
	}
	for _, qid := range rec.Recovered {
		plan := e.RT.DeployedPlan(qid)
		e.tracker.RemovePlan(booked[qid])
		e.tracker.AddPlan(plan)
		e.Registry.AdvertisePlan(e.RT.DeployedQuery(qid), plan)
		if e.ctl != nil {
			e.ctl.SetPlan(qid, plan)
		}
	}
	e.pruneAds()
	return rec, nil
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
			ids := q.StreamsOf(l.Mask)
			if l.In.Derived || len(ids) != 1 || ids[0] != id || seen[tap{l.In.Sig, l.Loc}] {
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

// AttachController puts every deployed query (and every later one) under
// the closed-loop re-optimization controller, re-planning with Replan,
// and starts its control loop on the runtime's clock. Its migrations are
// mirrored into the engine's books before OnMigrate sees them.
func (e *Engine) AttachController(cfg adapt.Config) *adapt.Controller {
	e.ctl = adapt.New(e.RT, e.Catalog, e.Replan, cfg)
	e.ctl.BindObs(e.Obs)
	e.ctl.OnMigrate = func(q *query.Query, old, fresh *query.PlanNode, rep iflow.MigrationReport) {
		e.migrated(q, fresh, rep)
		if e.OnMigrate != nil {
			e.OnMigrate(q, old, fresh, rep)
		}
	}
	for _, qid := range e.RT.DeployedQueries() {
		e.ctl.Track(e.RT.DeployedQuery(qid), e.RT.DeployedPlan(qid))
	}
	e.ctl.Run(e.until)
	return e.ctl
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

	// Diff-aware migration accounting (ApplyDelta) must leave exactly the
	// per-node load that tearing the books down and re-adding every plan
	// would — no holes, no double counting, no residue.
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
