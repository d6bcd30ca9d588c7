// Package hnp (Hierarchical Network Partitions) is a distributed
// stream-query optimization library reproducing "Optimizing Multiple
// Distributed Stream Queries Using Hierarchical Network Partitions"
// (Seshadri, Kumar, Cooper, Liu — IPDPS 2007).
//
// It jointly chooses query plans (bushy join orders) and deployments
// (operator-to-node assignments) for continuous select-project-join
// queries over distributed stream sources, using a virtual clustering
// hierarchy of the network to keep the search tractable and stream
// advertisements to reuse operators across queries.
//
// The essential workflow:
//
//	g := hnp.TransitStubNetwork(128, 1)       // or build your own Graph
//	sys, _ := hnp.NewSystem(g, 32, 1)          // hierarchy with max_cs=32
//	flights := sys.AddStream("FLIGHTS", 40, 17)
//	weather := sys.AddStream("WEATHER", 25, 93)
//	sys.SetSelectivity(flights, weather, 0.01)
//	dep, _ := sys.Deploy([]hnp.StreamID{flights, weather}, 5, hnp.AlgoTopDown)
//	fmt.Println(dep.Plan, dep.Cost)
//
// Deployed operators are advertised automatically, so later Deploy calls
// reuse them whenever that is cheaper than duplicating work.
package hnp

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

// Re-exported substrate types. Aliases keep one set of method sets and let
// the examples and external tooling use the library without touching
// internal packages directly.
type (
	// Graph is the physical network: nodes joined by links with per-byte
	// costs and propagation delays.
	Graph = netgraph.Graph
	// NodeID identifies a physical network node.
	NodeID = netgraph.NodeID
	// StreamID identifies a registered base stream.
	StreamID = query.StreamID
	// Query is a continuous SPJ query over base streams.
	Query = query.Query
	// PlanNode is a deployed operator tree.
	PlanNode = query.PlanNode
	// Result carries a plan, its cost, and search-space accounting.
	Result = core.Result
	// Hierarchy is the virtual clustering hierarchy of network partitions.
	Hierarchy = hierarchy.Hierarchy
	// Registry is the stream-advertisement registry enabling reuse.
	Registry = ads.Registry
	// Range is a predicate interval over an attribute's [0,1] domain.
	Range = query.Range
	// Pred constrains one attribute of one stream.
	Pred = query.Pred
	// PredSet is a conjunction of predicates; deployed operators computed
	// under weaker predicates are reusable by stricter queries through
	// residual filters (query containment).
	PredSet = query.PredSet
	// AggSpec describes a windowed aggregation over a query's result.
	AggSpec = query.AggSpec
	// Attr is one attribute of a stream schema: a name and its byte width.
	Attr = query.Attr
	// Schema is the ordered attribute list of a base stream; declaring one
	// makes the planners price every edge at rate×width and lets the
	// rewrite pipeline prune unreferenced columns.
	Schema = query.Schema
	// RewriteOutcome is the audit of the logical optimizer pipeline's run
	// over one query: rules applied, per-rule trace, planned bytes
	// before/after pushdown.
	RewriteOutcome = rewrite.Outcome
	// Snapshot is a point-in-time copy of a system's telemetry (see
	// System.Snapshot); counters, gauges and histogram summaries detached
	// from the live metrics.
	Snapshot = obs.Snapshot
)

// EnableTelemetry turns on metric recording process-wide. Telemetry is off
// by default; when off, every instrumentation point reduces to one atomic
// load (see the ≤2% bound asserted by BenchmarkDeploy).
func EnableTelemetry() { obs.Enable() }

// DisableTelemetry turns metric recording back off. Recorded values are
// retained, not reset.
func DisableTelemetry() { obs.Disable() }

// MustPredSet builds a normalized predicate set, panicking on
// contradictions — convenient for literals.
func MustPredSet(preds ...Pred) PredSet { return query.MustPredSet(preds...) }

// Metric selects what the optimizers minimize.
type Metric = netgraph.Metric

const (
	// MetricCost optimizes communication cost (rate × per-byte link cost),
	// the paper's primary objective.
	MetricCost = netgraph.MetricCost
	// MetricDelay optimizes response time: the hierarchy clusters by
	// inter-node delay and plans minimize rate-weighted path latency, as
	// the paper prescribes for response-time objectives ("if the metric is
	// response-time, we cluster based on inter-node delays").
	MetricDelay = netgraph.MetricDelay
)

// NewGraph returns an empty network with n nodes; add links with AddLink.
func NewGraph(n int) *Graph { return netgraph.New(n) }

// TransitStubNetwork generates the paper's standard Internet-style
// topology with exactly n nodes (transit backbone plus cheap stub
// domains), deterministically from the seed.
func TransitStubNetwork(n int, seed int64) *Graph {
	return netgraph.MustTransitStub(n, rand.New(rand.NewSource(seed)))
}

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

func (a Algorithm) String() string {
	switch a {
	case AlgoTopDown:
		return "top-down"
	case AlgoBottomUp:
		return "bottom-up"
	case AlgoOptimal:
		return "optimal"
	case AlgoPlanThenDeploy:
		return "plan-then-deploy"
	}
	return "unknown"
}

// System ties a network, its clustering hierarchy, a stream catalog and
// an advertisement registry into one optimization endpoint.
//
// Concurrency contract: Plan, PlanWhere, PlanCQL, Deploy, DeployWhere,
// DeployCQL, DeployAggregate, Refresh, SetLoadPenalty, AddLoad and
// NodeLoad are safe to call from multiple goroutines. Planning runs under
// a shared read lock, so any number of Plan/Deploy calls proceed in
// parallel; Refresh (and SetLoadPenalty) take the write lock and briefly
// exclude planners while the path snapshot and hierarchy are swapped. The
// advertisement registry and the load tracker are internally locked, so
// concurrent deployments interleave safely — though which deployment sees
// which earlier advertisement then depends on scheduling. Catalog
// mutation (AddStream, SetSelectivity) is setup-phase API: do not call it
// concurrently with planning. Mutating Graph directly must likewise be
// externally serialized with planning, followed by Refresh.
type System struct {
	Graph     *Graph
	Paths     *netgraph.Paths
	Hierarchy *Hierarchy
	Catalog   *query.Catalog
	Registry  *Registry

	// Obs is the system's private telemetry registry: every component of
	// this system records there (metric catalog in README), so concurrent
	// systems — e.g. parallel experiments — never share counters. Recording
	// only happens while EnableTelemetry is in effect.
	Obs *obs.Registry

	metric Metric

	// mu guards the Paths/Hierarchy snapshot swap (Refresh) and loadAlpha
	// against in-flight planning, which holds it in read mode.
	mu sync.RWMutex
	// qmu guards query ID allocation.
	qmu       sync.Mutex
	nextQuery int

	loadAlpha float64
	tracker   *load.Tracker
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

// NewSystem builds the hierarchy (cluster size cap maxCS) over g for the
// communication-cost objective and returns a ready-to-use system. The
// seed drives clustering only; identical inputs give identical
// hierarchies.
func NewSystem(g *Graph, maxCS int, seed int64) (*System, error) {
	return NewSystemWithMetric(g, maxCS, seed, MetricCost)
}

// NewSystemWithMetric is NewSystem with an explicit optimization metric:
// MetricDelay clusters the hierarchy by inter-node delay and every
// planner minimizes rate-weighted latency instead of transfer cost.
func NewSystemWithMetric(g *Graph, maxCS int, seed int64, m Metric) (*System, error) {
	reg := obs.NewRegistry()
	paths := g.ShortestPaths(m)
	sp := obs.StartSpan(reg, "hierarchy.build")
	h, err := hierarchy.Build(g, paths, maxCS, rand.New(rand.NewSource(seed)))
	sp.End()
	if err != nil {
		return nil, err
	}
	s := &System{
		Graph:     g,
		Paths:     paths,
		Hierarchy: h,
		Catalog:   query.NewCatalog(0.01),
		Registry:  ads.NewRegistry(),
		Obs:       reg,
		metric:    m,
		tracker:   load.NewTracker(),
	}
	s.Hierarchy.BindObs(reg)
	s.Registry.BindObs(reg)
	s.tracker.BindObs(reg)
	return s, nil
}

// Snapshot returns a point-in-time copy of the system's telemetry,
// detached from the live metrics. With telemetry disabled it is empty.
func (s *System) Snapshot() Snapshot { return s.Obs.Snapshot() }

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
func (s *System) AddLoad(v NodeID, inRate float64) { s.tracker.AddRaw(v, inRate) }

// NodeLoad returns the tracked processing load (input rate) on a node.
func (s *System) NodeLoad(v NodeID) float64 { return s.tracker.Load(v) }

// AddStream registers a base stream producing rate cost-units per unit
// time at the given node.
func (s *System) AddStream(name string, rate float64, source NodeID) StreamID {
	return s.Catalog.Add(name, rate, source)
}

// SetSelectivity records the pairwise join selectivity between streams.
func (s *System) SetSelectivity(a, b StreamID, sel float64) {
	s.Catalog.SetSelectivity(a, b, sel)
}

// SetSchema declares a stream's attribute schema. With schemas declared,
// planners cost every edge at rate×width instead of rate alone, and CQL
// projections prune columns no operator references (shrinking per-edge
// tuple widths). Setup-phase API, like AddStream: declare schemas before
// planning or deploying.
func (s *System) SetSchema(id StreamID, schema Schema) {
	s.Catalog.SetSchema(id, schema)
}

// Deployment is the outcome of deploying one query.
type Deployment struct {
	Query *Query
	Result
	// Rewrite is the logical optimizer pipeline's audit: non-nil for every
	// CQL-planned query, nil for queries built programmatically. When
	// Rewrite.NoOp is set the query is provably empty: Plan is nil and
	// nothing was deployed.
	Rewrite *RewriteOutcome
}

// Plan plans a query without deploying it (no advertisements recorded):
// useful for what-if comparisons. Every planned query receives its own
// unique query ID, so consecutive what-if plans never collide.
func (s *System) Plan(sources []StreamID, sink NodeID, algo Algorithm) (Deployment, error) {
	return s.PlanWhere(sources, sink, algo, PredSet{})
}

// PlanWhere is Plan with selection predicates.
func (s *System) PlanWhere(sources []StreamID, sink NodeID, algo Algorithm, preds PredSet) (Deployment, error) {
	q, err := query.NewQueryPred(s.allocQueryID(), sources, sink, preds)
	if err != nil {
		return Deployment{}, err
	}
	res, err := s.run(q, algo)
	if err != nil {
		return Deployment{}, err
	}
	return Deployment{Query: q, Result: res}, nil
}

// Deploy plans a query with the chosen algorithm — considering reuse of
// every previously deployed operator — and advertises the new plan's
// operators for future queries. The returned cost is the marginal
// communication cost per unit time this deployment adds.
func (s *System) Deploy(sources []StreamID, sink NodeID, algo Algorithm) (Deployment, error) {
	return s.DeployWhere(sources, sink, algo, PredSet{})
}

// DeployWhere is Deploy with selection predicates: stricter queries can
// reuse previously deployed weaker operators through residual filters.
func (s *System) DeployWhere(sources []StreamID, sink NodeID, algo Algorithm, preds PredSet) (Deployment, error) {
	d, err := s.PlanWhere(sources, sink, algo, preds)
	if err != nil {
		return Deployment{}, err
	}
	s.deployRecord(d.Query, d.Result)
	return d, nil
}

// Undeploy retracts a finalized deployment, reversing deployRecord: the
// advertisements its plan created leave the registry (so planners stop
// being offered streams nobody produces anymore) and its processing load
// leaves the ledger. Advertisements the plan merely reused belong to the
// deployment that created them and stay. It returns the number of
// retracted advertisements. Planning-level bookkeeping only — tearing
// down live operators (with reference counting for shared subtrees) is
// the IFLOW runtime's Undeploy.
func (s *System) Undeploy(d Deployment) int {
	if d.Query == nil || d.Plan == nil {
		return 0
	}
	removed := s.Registry.RetractPlan(d.Query, d.Plan)
	s.tracker.RemovePlan(d.Plan)
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
func (s *System) DeployCQL(stmt string, sink NodeID, algo Algorithm) (Deployment, error) {
	d, err := s.PlanCQL(stmt, sink, algo)
	if err != nil {
		return Deployment{}, err
	}
	if d.Plan == nil {
		// Provably-empty query (contradictory WHERE folded to a no-op):
		// nothing to advertise, load, or run.
		return d, nil
	}
	s.deployRecord(d.Query, d.Result)
	return d, nil
}

// PlanCQL parses and plans a SQL-like query without deploying it (no
// advertisements or load recorded) — what-if analysis for query text.
func (s *System) PlanCQL(stmt string, sink NodeID, algo Algorithm) (Deployment, error) {
	st, err := cql.Parse(s.Catalog, stmt)
	if err != nil {
		return Deployment{}, err
	}
	q, err := st.Query(s.allocQueryID(), sink)
	if err != nil {
		return Deployment{}, err
	}
	// A provably-empty WHERE reaches the pipeline through st.Pushdown and
	// folds to the no-op deployment there.
	out := rewrite.Apply(s.Catalog, q, st.Pushdown())
	if obs.On() {
		s.Obs.Counter("rewrite.rules_applied").Add(int64(out.RulesApplied))
		s.Obs.Gauge("rewrite.bytes_saved").Add(out.BytesSaved())
	}
	if tr := s.Obs.Tracer(); tr.On() && out.RulesApplied > 0 {
		tr.Emit(obs.Event{
			Kind: obs.KindRewriteApplied, Trace: obs.QueryTrace(q.ID),
			Query: q.ID, Node: obs.NoID,
			Value: out.BytesSaved(), Aux: float64(out.RulesApplied),
			Detail: out.TraceString(),
		})
	}
	if out.NoOp {
		return Deployment{Query: q, Rewrite: &out}, nil
	}
	res, err := s.run(q, algo)
	if err != nil {
		return Deployment{}, err
	}
	return Deployment{Query: q, Result: res, Rewrite: &out}, nil
}

// DeployAggregate deploys a query whose join result is reduced by a
// windowed aggregation before delivery; the aggregate is placed jointly
// with the rest of the plan (usually on the join root, collapsing the
// downstream rate).
func (s *System) DeployAggregate(sources []StreamID, sink NodeID, algo Algorithm,
	preds PredSet, agg AggSpec) (Deployment, error) {
	q, err := query.NewQueryAgg(s.allocQueryID(), sources, sink, preds, agg)
	if err != nil {
		return Deployment{}, err
	}
	res, err := s.run(q, algo)
	if err != nil {
		return Deployment{}, err
	}
	s.deployRecord(q, res)
	return Deployment{Query: q, Result: res}, nil
}

// deployRecord finalizes a deployment: the plan's operators are advertised
// for future reuse and its processing load is accounted. With telemetry
// enabled the reuse outcome is classified first, against the registry
// state the planner saw: every derived leaf the plan consumes is a hit
// ("ads.reuse_hits"); a deployment that was offered reuse candidates yet
// consumed none is a miss ("ads.reuse_misses" — duplicating the work was
// cheaper).
func (s *System) deployRecord(q *Query, res Result) {
	if obs.On() {
		hits := res.Plan.DerivedLeaves()
		s.Obs.Counter("ads.reuse_hits").Add(int64(hits))
		if hits == 0 && s.reuseWasOffered(q, res) {
			s.Obs.Counter("ads.reuse_misses").Inc()
		}
	}
	s.Registry.AdvertisePlan(q, res.Plan)
	s.tracker.AddPlan(res.Plan)
}

// reuseWasOffered reports whether the planner saw at least one applicable
// advertisement: from the planning trace when there is one, otherwise
// (baseline planners) by re-running the advertisement lookup.
func (s *System) reuseWasOffered(q *Query, res Result) bool {
	if res.Trace != nil {
		offered := 0
		var walk func(st *core.PlanStep)
		walk = func(st *core.PlanStep) {
			if st == nil {
				return
			}
			offered += st.ReuseOffered
			for _, ch := range st.Children {
				walk(ch)
			}
		}
		walk(res.Trace)
		return offered > 0
	}
	return len(s.Registry.InputsFor(q, query.BuildRates(s.Catalog, q), nil)) > 0
}

func (s *System) run(q *query.Query, algo Algorithm) (Result, error) {
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
		return core.TopDownOpts(s.Hierarchy, s.Catalog, q, s.Registry, opts)
	case AlgoBottomUp:
		return core.BottomUpOpts(s.Hierarchy, s.Catalog, q, s.Registry, opts)
	case AlgoOptimal:
		return core.OptimalOpts(s.Graph, s.Paths, s.Catalog, q, s.Registry, opts)
	case AlgoPlanThenDeploy:
		// The phased baseline predates load awareness; it ignores opts.
		return baseline.PlanThenDeploy(s.Graph, s.Paths, s.Catalog, q, s.Registry)
	}
	return Result{}, fmt.Errorf("hnp: unknown algorithm %d", algo)
}

// Refresh brings the path snapshot up to date and re-binds the hierarchy
// after the graph changed (link cost updates; node churn is handled via
// the hierarchy's AddNode/RemoveNode). The refresh is incremental where
// the graph's mutation log permits — only the source rows that actually
// moved are recomputed, and only clusters touching them re-audited — and
// falls back to a full recompute otherwise; either way the resulting
// snapshot is bit-identical to a fresh one. The published snapshot is
// shared with concurrently running planners, so retired snapshots are
// never recycled here.
func (s *System) Refresh() {
	// Compute outside the write lock: planners keep running against the
	// old snapshot until the swap below.
	s.mu.RLock()
	old := s.Paths
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
	s.Paths = paths
}
