// Package engine is the one lifecycle object of the reproduction — the
// paper's Figure 1(b) as code. System is the planning half: network,
// path snapshot, clustering hierarchy, stream catalog, advertisement
// registry and load ledger behind one planning path. Engine composes a
// System with the IFLOW runtime and the adaptation controller and owns
// the bookkeeping every lifecycle step implies (see Engine). Package hnp
// re-exports System; the chaos harness, the CLIs and the examples drive
// an Engine.
package engine

import (
	"fmt"
	"math/rand"
	"sync"

	"hnp/internal/ads"
	"hnp/internal/baseline"
	"hnp/internal/core"
	"hnp/internal/cql"
	"hnp/internal/hierarchy"
	"hnp/internal/load"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
	"hnp/internal/query/rewrite"
)

// Algorithm selects the optimizer Deploy runs.
type Algorithm int

const (
	// AlgoTopDown is the paper's Top-Down algorithm: bounded
	// sub-optimality, plans recursively down the hierarchy.
	AlgoTopDown Algorithm = iota
	// AlgoBottomUp is the paper's Bottom-Up algorithm: smaller search
	// space and faster deployments, weaker guarantees.
	AlgoBottomUp
	// AlgoOptimal is the exhaustive joint optimum (DP over the whole
	// network) — exact but unscalable; useful as a baseline.
	AlgoOptimal
	// AlgoPlanThenDeploy is the conventional phased baseline:
	// selectivity-only planning followed by optimal placement.
	AlgoPlanThenDeploy
)

// algoNames is the one table of algorithm names: String renders from it,
// ParseAlgorithm reads it back, and the wire format, the CLIs and the
// chaos traces all use these spellings.
var algoNames = [...]string{
	AlgoTopDown:        "top-down",
	AlgoBottomUp:       "bottom-up",
	AlgoOptimal:        "optimal",
	AlgoPlanThenDeploy: "plan-then-deploy",
}

func (a Algorithm) String() string {
	if a < 0 || int(a) >= len(algoNames) {
		return "unknown"
	}
	return algoNames[a]
}

// ParseAlgorithm is the inverse of String.
func ParseAlgorithm(name string) (Algorithm, bool) {
	for a, n := range algoNames {
		if n == name {
			return Algorithm(a), true
		}
	}
	return 0, false
}

// System ties a network, its clustering hierarchy, a stream catalog and
// an advertisement registry into one optimization endpoint.
//
// Concurrency contract: Plan, PlanWhere, PlanCQL, PlanQuery, Deploy,
// DeployWhere, DeployCQL, DeployAggregate, Refresh, SetLoadPenalty,
// AddLoad and NodeLoad are safe to call from multiple goroutines. Planning
// runs under a shared read lock, so any number of Plan/Deploy calls
// proceed in parallel; Refresh (and SetLoadPenalty) take the write lock
// and briefly exclude planners while the path snapshot and hierarchy are
// swapped. The advertisement registry and the load tracker are internally
// locked, so concurrent deployments interleave safely — though which
// deployment sees which earlier advertisement then depends on scheduling.
// Catalog mutation (AddStream, SetSelectivity) is setup-phase API: do not
// call it concurrently with planning. Mutating Graph directly must
// likewise be externally serialized with planning, followed by Refresh.
type System struct {
	Graph     *netgraph.Graph
	Hierarchy *hierarchy.Hierarchy
	Catalog   *query.Catalog
	Registry  *ads.Registry

	// Obs is the system's private telemetry registry: every component of
	// this system records there (metric catalog in README), so concurrent
	// systems — e.g. parallel experiments — never share counters. Recording
	// only happens while telemetry is enabled (obs.Enable).
	Obs *obs.Registry

	// mu guards the Hierarchy's path-snapshot swap (Refresh) and loadAlpha
	// against in-flight planning, which holds it in read mode.
	mu sync.RWMutex
	// qmu guards query ID allocation.
	qmu       sync.Mutex
	nextQuery int

	loadAlpha float64
	tracker   *load.Tracker

	// pmu guards the prepared-statement table (see prepared), built at
	// catalog version preparedAt; the handles are "cql.prepared_hits",
	// "cql.prepared_misses" and "cql.prepared_entries".
	pmu                  sync.Mutex
	prepared             map[string]*prepared
	preparedAt           uint64
	prepHits, prepMisses *obs.Counter
	prepEntries          *obs.Gauge
}

// prepared is the part of planning a statement that depends on nothing
// but its text and the catalog: the parsed, rewritten query (ID and Sink
// unset), the pipeline's audit, and that audit as the flight trace prints
// it (rendered if the recorder was armed when the entry was built and a
// rule applied — an audit of no rules is never emitted). The
// table holds one per text, under three rules. An entry is pinned by its
// standing deployments: DeployCQL enters and refs it, Undeploy unrefs and
// drops it at zero, a what-if PlanCQL may hit but never enters one. The
// whole table is dropped at the first lookup after Catalog.Version moves.
// What an entry holds — Sources, Preds, Proj, SrcWidths, Agg, the Outcome
// behind Deployment.Rewrite — is shared by every query copied from it and
// is never written.
type prepared struct {
	text  string
	tmpl  query.Query
	out   rewrite.Outcome
	trace string
	refs  int
}

// prepare returns stmt's standing entry, or parses and rewrites it into a
// fresh one that pin may enter later, and a query of the caller's own to
// set ID and Sink on.
func (s *System) prepare(stmt string) (*prepared, *query.Query, error) {
	s.pmu.Lock()
	if v := s.Catalog.Version(); v != s.preparedAt {
		clear(s.prepared)
		s.preparedAt = v
	}
	p := s.prepared[stmt]
	s.pmu.Unlock()
	if p != nil {
		s.prepHits.Inc()
		q := p.tmpl
		return p, &q, nil
	}
	s.prepMisses.Inc()
	st, err := cql.Parse(s.Catalog, stmt)
	if err != nil {
		return nil, nil, err
	}
	q, err := st.Query(0, 0)
	if err != nil {
		return nil, nil, err
	}
	// A provably-empty WHERE reaches the pipeline through st.Pushdown and
	// folds to the no-op deployment there.
	out := rewrite.Apply(s.Catalog, q, st.Pushdown())
	p = &prepared{text: stmt, tmpl: *q, out: out}
	if s.Obs.Tracer().On() && out.RulesApplied > 0 { // planCQL emits nothing otherwise
		p.trace = out.TraceString()
	}
	return p, q, nil
}

// pin counts one more standing deployment of p's text and returns the
// entry that holds the reference: p, entered if it is the first, or the
// one a concurrent deploy of the same text entered meanwhile.
func (s *System) pin(p *prepared) *prepared {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if first := s.prepared[p.text]; first != nil {
		p = first
	}
	s.prepared[p.text] = p
	p.refs++
	s.prepEntries.Set(float64(len(s.prepared)))
	return p
}

// unpin reverses pin. An entry of a table since dropped just lapses.
func (s *System) unpin(p *prepared) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if p.refs--; p.refs == 0 && s.prepared[p.text] == p {
		delete(s.prepared, p.text)
	}
	s.prepEntries.Set(float64(len(s.prepared)))
}

// NewSystem assembles a system from pre-built parts: h must be a hierarchy
// over g, whose path snapshot is the one the system plans on. The
// hierarchy, the fresh registry and the fresh load ledger record into reg.
func NewSystem(g *netgraph.Graph, h *hierarchy.Hierarchy, cat *query.Catalog, reg *obs.Registry) *System {
	s := &System{
		Graph:       g,
		Hierarchy:   h,
		Catalog:     cat,
		Registry:    ads.NewRegistry(),
		Obs:         reg,
		tracker:     load.NewTracker(),
		prepared:    map[string]*prepared{},
		prepHits:    reg.Counter("cql.prepared_hits"),
		prepMisses:  reg.Counter("cql.prepared_misses"),
		prepEntries: reg.Gauge("cql.prepared_entries"),
	}
	s.Hierarchy.BindObs(reg)
	s.Registry.BindObs(reg)
	s.tracker.BindObs(reg)
	return s
}

// Build builds a hierarchy (cluster size cap maxCS, clustering driven by
// seed) over g and its snapshot paths and returns a system with a telemetry
// registry of its own. Systems built over one g, paths and cat plan over
// one network: only hierarchy, advertisements, load and telemetry are
// theirs.
func Build(g *netgraph.Graph, paths *netgraph.Paths, cat *query.Catalog, maxCS int, seed int64) (*System, error) {
	reg := obs.NewRegistry()
	sp := obs.StartSpan(reg, "hierarchy.build")
	h, err := hierarchy.Build(g, paths, maxCS, rand.New(rand.NewSource(seed)))
	sp.End()
	if err != nil {
		return nil, err
	}
	return NewSystem(g, h, cat, reg), nil
}

// allocQueryID hands out a unique query ID. Every planned query gets its
// own ID — including what-if plans that are never deployed — so plan
// objects, advertisements and runtime deployments never collide.
func (s *System) allocQueryID() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	id := s.nextQuery
	s.nextQuery++
	return id
}

// Snapshot returns a point-in-time copy of the system's telemetry,
// detached from the live metrics. With telemetry disabled it is empty.
func (s *System) Snapshot() obs.Snapshot { return s.Obs.Snapshot() }

// SetLoadPenalty enables load-aware planning: placing an operator on a
// node already processing load L costs an extra alpha×L×inputRate in the
// planning objective, steering new deployments away from overloaded
// nodes (the paper's "node N2 may be overloaded" scenario). Zero disables
// it. Deployed plans feed the load ledger automatically; use AddLoad for
// background load from other applications.
func (s *System) SetLoadPenalty(alpha float64) {
	s.mu.Lock()
	s.loadAlpha = alpha
	s.mu.Unlock()
}

// AddLoad records synthetic background processing load on a node.
func (s *System) AddLoad(v netgraph.NodeID, inRate float64) { s.tracker.AddRaw(v, inRate) }

// NodeLoad returns the tracked processing load (input rate) on a node.
func (s *System) NodeLoad(v netgraph.NodeID) float64 { return s.tracker.Load(v) }

// AddStream registers a base stream producing rate cost-units per unit
// time at the given node.
func (s *System) AddStream(name string, rate float64, source netgraph.NodeID) query.StreamID {
	return s.Catalog.Add(name, rate, source)
}

// SetSelectivity records the pairwise join selectivity between streams.
func (s *System) SetSelectivity(a, b query.StreamID, sel float64) {
	s.Catalog.SetSelectivity(a, b, sel)
}

// SetSchema declares a stream's attribute schema. With schemas declared,
// planners cost every edge at rate×width instead of rate alone, and CQL
// projections prune columns no operator references (shrinking per-edge
// tuple widths). Setup-phase API, like AddStream: declare schemas before
// planning or deploying.
func (s *System) SetSchema(id query.StreamID, schema query.Schema) {
	s.Catalog.SetSchema(id, schema)
}

// Deployment is the outcome of deploying one query.
type Deployment struct {
	Query *query.Query
	core.Result
	// Rewrite is the logical optimizer pipeline's audit: non-nil for every
	// CQL-planned query, nil for queries built programmatically. When
	// Rewrite.NoOp is set the query is provably empty: Plan is nil and
	// nothing was deployed.
	Rewrite *rewrite.Outcome
	// stmt is the prepared statement a standing CQL deployment pins.
	stmt *prepared
}

// Plan plans a query without deploying it (no advertisements recorded):
// useful for what-if comparisons. Every planned query receives its own
// unique query ID, so consecutive what-if plans never collide.
func (s *System) Plan(sources []query.StreamID, sink netgraph.NodeID, algo Algorithm) (Deployment, error) {
	return s.PlanWhere(sources, sink, algo, query.PredSet{})
}

// PlanWhere is Plan with selection predicates.
func (s *System) PlanWhere(sources []query.StreamID, sink netgraph.NodeID, algo Algorithm, preds query.PredSet) (Deployment, error) {
	q, err := query.NewQueryPred(s.allocQueryID(), sources, sink, preds)
	if err != nil {
		return Deployment{}, err
	}
	return s.planned(q, algo)
}

// planned runs the planner for a freshly built query and wraps the result.
func (s *System) planned(q *query.Query, algo Algorithm) (Deployment, error) {
	res, err := s.PlanQuery(q, algo, s.Registry)
	if err != nil {
		return Deployment{}, err
	}
	return Deployment{Query: q, Result: res}, nil
}

// recorded finalizes a just-planned deployment unless planning failed or
// the rewrite pipeline proved the query empty (nil Plan: nothing to
// advertise, load, or run).
func (s *System) recorded(d Deployment, err error) (Deployment, error) {
	if err == nil && d.Plan != nil {
		s.deployRecord(d.Query, d.Result)
	}
	return d, err
}

// Deploy plans a query with the chosen algorithm — considering reuse of
// every previously deployed operator — and advertises the new plan's
// operators for future queries. The returned cost is the marginal
// communication cost per unit time this deployment adds.
func (s *System) Deploy(sources []query.StreamID, sink netgraph.NodeID, algo Algorithm) (Deployment, error) {
	return s.DeployWhere(sources, sink, algo, query.PredSet{})
}

// DeployWhere is Deploy with selection predicates: stricter queries can
// reuse previously deployed weaker operators through residual filters.
func (s *System) DeployWhere(sources []query.StreamID, sink netgraph.NodeID, algo Algorithm, preds query.PredSet) (Deployment, error) {
	return s.recorded(s.PlanWhere(sources, sink, algo, preds))
}

// Undeploy retracts a finalized deployment, reversing deployRecord: the
// advertisements its plan created leave the registry (so planners stop
// being offered streams nobody produces anymore) and its processing load
// leaves the ledger. Advertisements the plan merely reused belong to the
// deployment that created them and stay. It returns the number of
// retracted advertisements. Planning-level bookkeeping only: with no
// runtime to ask which operators still run, ownership (the creator's
// query ID) decides what is retracted. An Engine retracts by liveness
// instead — see Engine.Undeploy for why the two rules stay apart.
func (s *System) Undeploy(d Deployment) int {
	if d.Query == nil || d.Plan == nil {
		return 0
	}
	removed := s.Registry.RetractPlan(d.Query, d.Plan)
	s.tracker.RemovePlan(d.Plan)
	if d.stmt != nil {
		s.unpin(d.stmt)
	}
	if obs.On() {
		s.Obs.Counter("system.undeploys").Inc()
	}
	return removed
}

// DeployCQL parses a SQL-like continuous query (the paper's query
// syntax; see internal/cql for the grammar) against the catalog, plans it
// with the chosen algorithm — predicates, containment and aggregates
// included — and deploys it toward the sink:
//
//	sys.DeployCQL(`SELECT FLIGHTS.STATUS, CHECK-INS.STATUS
//	               FROM FLIGHTS, CHECK-INS
//	               WHERE FLIGHTS.DEPARTING = 'ATLANTA'
//	                 AND FLIGHTS.NUM = CHECK-INS.FLNUM`, sink, hnp.AlgoTopDown)
func (s *System) DeployCQL(stmt string, sink netgraph.NodeID, algo Algorithm) (Deployment, error) {
	d, p, err := s.planCQL(stmt, sink, algo)
	if d, err = s.recorded(d, err); err == nil && d.Plan != nil {
		d.stmt = s.pin(p)
	}
	return d, err
}

// PlanCQL parses and plans a SQL-like query without deploying it (no
// advertisements or load recorded) — what-if analysis for query text. A
// text with a standing deployment is not parsed or rewritten again: the
// query is a copy of its prepared template with its own ID and sink.
func (s *System) PlanCQL(stmt string, sink netgraph.NodeID, algo Algorithm) (Deployment, error) {
	d, _, err := s.planCQL(stmt, sink, algo)
	return d, err
}

// planCQL is PlanCQL, also returning the prepared statement it used.
func (s *System) planCQL(stmt string, sink netgraph.NodeID, algo Algorithm) (Deployment, *prepared, error) {
	p, q, err := s.prepare(stmt)
	if err != nil {
		return Deployment{}, nil, err
	}
	q.ID, q.Sink = s.allocQueryID(), sink
	if obs.On() {
		s.Obs.Counter("rewrite.rules_applied").Add(int64(p.out.RulesApplied))
		s.Obs.Gauge("rewrite.bytes_saved").Add(p.out.BytesSaved())
	}
	if tr := s.Obs.Tracer(); tr.On() && p.out.RulesApplied > 0 {
		detail := p.trace
		if detail == "" { // prepared while the recorder was disarmed
			detail = p.out.TraceString()
		}
		tr.Emit(obs.Event{
			Kind: obs.KindRewriteApplied, Trace: obs.QueryTrace(q.ID),
			Query: q.ID, Node: obs.NoID,
			Value: p.out.BytesSaved(), Aux: float64(p.out.RulesApplied),
			Detail: detail,
		})
	}
	d := Deployment{Query: q, Rewrite: &p.out}
	if !p.out.NoOp {
		d.Result, err = s.PlanQuery(q, algo, s.Registry)
	}
	if err != nil {
		return Deployment{}, nil, err
	}
	return d, p, nil
}

// DeployAggregate deploys a query whose join result is reduced by a
// windowed aggregation before delivery; the aggregate is placed jointly
// with the rest of the plan (usually on the join root, collapsing the
// downstream rate).
func (s *System) DeployAggregate(sources []query.StreamID, sink netgraph.NodeID, algo Algorithm,
	preds query.PredSet, agg query.AggSpec) (Deployment, error) {
	q, err := query.NewQueryAgg(s.allocQueryID(), sources, sink, preds, agg)
	if err != nil {
		return Deployment{}, err
	}
	return s.recorded(s.planned(q, algo))
}

// deployRecord finalizes a deployment: the plan's operators are advertised
// for future reuse and its processing load is accounted. With telemetry
// enabled the reuse outcome is classified first, from what planning
// itself saw: every derived leaf the plan consumes is a hit
// ("ads.reuse_hits"); a deployment whose search was offered reuse
// candidates (Result.ReuseOffered) yet consumed none is a miss
// ("ads.reuse_misses" — duplicating the work was cheaper).
func (s *System) deployRecord(q *query.Query, res core.Result) {
	if obs.On() {
		hits := res.Plan.DerivedLeaves()
		s.Obs.Counter("ads.reuse_hits").Add(int64(hits))
		if hits == 0 && res.ReuseOffered > 0 {
			s.Obs.Counter("ads.reuse_misses").Inc()
		}
	}
	s.Registry.AdvertisePlan(q, res.Plan)
	s.tracker.AddPlan(res.Plan)
}

// PlanQuery is the one planning path: every facade entry point, the
// Engine's re-planners and the chaos harness's pool queries all end here.
// It plans a built query with the chosen algorithm against current
// conditions, consulting reg for reusable operators — the system's own
// registry for ordinary planning, an empty or filtered one when the
// caller must withhold advertisements. Nothing is recorded.
func (s *System) PlanQuery(q *query.Query, algo Algorithm, reg *ads.Registry) (core.Result, error) {
	// Planning holds the read lock: many planners run in parallel, while
	// Refresh's snapshot swap excludes them all.
	s.mu.RLock()
	defer s.mu.RUnlock()
	opts := core.Options{Obs: s.Obs}
	if s.loadAlpha > 0 {
		opts.Penalty = s.tracker.Penalty(s.loadAlpha)
	}
	switch algo {
	case AlgoTopDown:
		return core.TopDownOpts(s.Hierarchy, s.Catalog, q, reg, opts)
	case AlgoBottomUp:
		return core.BottomUpOpts(s.Hierarchy, s.Catalog, q, reg, opts)
	case AlgoOptimal:
		return core.OptimalOpts(s.Graph, s.Hierarchy.Paths(), s.Catalog, q, reg, opts)
	case AlgoPlanThenDeploy:
		// The phased baseline predates load awareness; it ignores opts.
		return baseline.PlanThenDeploy(s.Graph, s.Hierarchy.Paths(), s.Catalog, q, reg)
	}
	return core.Result{}, fmt.Errorf("hnp: unknown algorithm %d", algo)
}

// Refresh brings the path snapshot up to date and re-binds the hierarchy
// after the graph changed (link cost updates; node churn is handled via
// the hierarchy's AddNode/RemoveNode). The refresh is incremental where
// the graph's mutation log permits — only the source rows that actually
// moved are recomputed, and only clusters touching them re-audited — and
// falls back to a full recompute otherwise; either way the resulting
// snapshot is bit-identical to a fresh one. The published snapshot is
// shared with concurrently running planners, so retired snapshots are
// never recycled here. This is the only place the planning side's
// RefreshFrom→RebindRows chain is written; Engine.UpdateLinkCosts ends
// in it.
func (s *System) Refresh() {
	// Compute outside the write lock: planners keep running against the
	// old snapshot until the swap below.
	s.mu.RLock()
	old := s.Hierarchy.Paths()
	s.mu.RUnlock()
	paths, stats := old.RefreshFrom(s.Graph, nil)
	switch stats.Mode {
	case netgraph.RefreshIncremental:
		s.Obs.Counter("paths.refresh_incremental").Inc()
	case netgraph.RefreshFull:
		s.Obs.Counter("paths.refresh_full").Inc()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if paths == old {
		return // graph unchanged since the snapshot was taken
	}
	if err := s.Hierarchy.RebindRows(paths, stats.Rows); err != nil {
		// Unreachable: a just-computed snapshot cannot be stale.
		panic(err)
	}
}
