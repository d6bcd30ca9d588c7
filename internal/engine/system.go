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
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"

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

// Algorithm selects the optimizer the Plan methods run.
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
// Refresh and NodeLoad are safe to call from multiple goroutines.
// Planning runs under a shared read lock, so any number of Plan/Deploy
// calls proceed in parallel; Refresh alone takes the write lock and
// briefly excludes planners while the path snapshot and hierarchy are
// swapped. The advertisement registry and the load tracker
// are internally locked, so concurrent deployments interleave safely —
// though which deployment sees which earlier advertisement then depends
// on scheduling.
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

	// mu guards the Hierarchy's path-snapshot swap (Refresh) against
	// in-flight planning, which holds it in read mode.
	mu sync.RWMutex
	// queries counts the query IDs handed out (see allocQueryID).
	queries atomic.Int64

	tracker *load.Tracker

	// pmu guards the prepared-statement table (see prepared), built at
	// catalog version preparedAt; the handles are "cql.prepared_hits",
	// "cql.prepared_misses" and "cql.prepared_entries".
	pmu                  sync.Mutex
	prepared             map[string]*prepared
	preparedAt           uint64
	unpinned             int // entries dropped since prepared was last rebuilt
	prepHits, prepMisses *obs.Counter
	prepEntries          *obs.Gauge
}

// prepared is the part of planning a statement that depends on nothing but
// its text and the catalog: the parsed, rewritten query (ID and Sink
// unset) and the pipeline's outcome, whose audit every rewrite_applied
// event of the text carries. The table holds one per text, under three
// rules. An entry is pinned by its standing deployments: PlanCQL may hit
// but never enters one, System.Deploy refs the one d carries (entering it
// into an empty slot if built at the current catalog version), Undeploy
// unrefs and drops it at zero. The whole table is dropped at the first
// lookup after Catalog.Version moves. What an entry holds — Sources,
// Preds, Proj, SrcWidths, Agg, the Outcome behind Deployment.Rewrite — is
// shared by every query copied from it and is never written.
type prepared struct {
	text string
	tmpl query.Query
	out  rewrite.Outcome
	refs int
	at   uint64 // the catalog version prepare looked it up at
}

// prepare returns stmt's standing entry, or parses and rewrites it into a
// fresh candidate that pin may enter later, and a query of the caller's
// own to set ID and Sink on.
func (s *System) prepare(stmt string) (*prepared, *query.Query, error) {
	s.pmu.Lock()
	if v := s.Catalog.Version(); v != s.preparedAt {
		clear(s.prepared)
		s.preparedAt = v
	}
	p, at := s.prepared[stmt], s.preparedAt
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
	return &prepared{text: stmt, tmpl: *q, out: out, at: at}, q, nil
}

// pin counts one more standing deployment on p, entering p into an empty
// slot if built at the table's and the catalog's version. Any other p (one
// that lost a race, or is stale) lapses with its own deployments.
func (s *System) pin(p *prepared) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.prepared[p.text] == nil && p.at == s.preparedAt && p.at == s.Catalog.Version() {
		s.prepared[p.text] = p
	}
	p.refs++
	s.prepEntries.Set(float64(len(s.prepared)))
}

// unpin reverses pin. An entry not in the table (of a table since dropped,
// or a candidate pin did not enter) just lapses.
func (s *System) unpin(p *prepared) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if p.refs--; p.refs == 0 && s.prepared[p.text] == p {
		delete(s.prepared, p.text)
		if s.unpinned++; s.unpinned > 2*len(s.prepared) { // as ads.Registry's buckets
			s.prepared, s.unpinned = maps.Clone(s.prepared), 0
		}
	}
	s.prepEntries.Set(float64(len(s.prepared)))
}

// NewSystem assembles a system from pre-built parts: h must be a hierarchy
// over g, whose path snapshot is the one the system plans on. The fresh
// advertisement registry and load ledger record into reg; the hierarchy
// records into whatever registry its builder bound it to (Build binds its
// own), so any number of systems may share one hierarchy.
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
	h.BindObs(reg)
	return NewSystem(g, h, cat, reg), nil
}

// allocQueryID hands out a unique query ID. Every planned query gets its
// own ID — including what-if plans that are never deployed — so plan
// objects, advertisements and runtime deployments never collide.
func (s *System) allocQueryID() int { return int(s.queries.Add(1) - 1) }

// Snapshot returns a point-in-time copy of the system's telemetry,
// detached from the live metrics. With telemetry disabled it is empty.
func (s *System) Snapshot() obs.Snapshot { return s.Obs.Snapshot() }

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

// Deployment is a planned query (plan and placement) that Deploy commits.
type Deployment struct {
	Query *query.Query
	core.Result
	// Rewrite is the logical optimizer pipeline's audit: non-nil for every
	// CQL-planned query, nil for queries built programmatically. When
	// Rewrite.NoOp is set the query is provably empty: Plan is nil and
	// Deploy records nothing.
	Rewrite *rewrite.Outcome
	// stmt is the prepared statement PlanCQL used; Deploy pins it.
	stmt *prepared
}

// Plan plans a query without deploying it (no advertisements recorded);
// Deploy commits the result. Every planned query receives its own unique
// query ID, so consecutive plans never collide.
func (s *System) Plan(sources []query.StreamID, sink netgraph.NodeID, algo Algorithm) (Deployment, error) {
	return s.PlanWhere(sources, sink, algo, query.PredSet{})
}

// PlanWhere is Plan with selection predicates: stricter queries can reuse
// previously deployed weaker operators through residual filters.
func (s *System) PlanWhere(sources []query.StreamID, sink netgraph.NodeID, algo Algorithm, preds query.PredSet) (Deployment, error) {
	q, err := query.NewQueryPred(s.allocQueryID(), sources, sink, preds)
	if err != nil {
		return Deployment{}, err
	}
	res, err := s.PlanQuery(q, algo, s.Registry)
	if err != nil {
		return Deployment{}, err
	}
	return Deployment{Query: q, Result: res}, nil
}

// Deploy commits a planned deployment: its operators are advertised for
// future queries, its processing load is booked and a CQL-planned one pins
// its prepared statement until Undeploy; Engine.Deploy runs the plan first.
// A nil Plan (a provably empty query) records nothing. With telemetry on,
// the derived leaves a plan consumes count as "ads.reuse_hits"; a plan
// offered candidates (Result.ReuseOffered) that consumed none is an
// "ads.reuse_misses" (duplicating the work was cheaper).
func (s *System) Deploy(d Deployment) error {
	if d.Plan == nil {
		return nil
	}
	if obs.On() {
		hits := d.Plan.DerivedLeaves()
		s.Obs.Counter("ads.reuse_hits").Add(int64(hits))
		if hits == 0 && d.ReuseOffered > 0 {
			s.Obs.Counter("ads.reuse_misses").Inc()
		}
	}
	s.Registry.AdvertisePlan(d.Query, d.Plan)
	s.tracker.AddPlan(d.Plan)
	if d.stmt != nil {
		s.pin(d.stmt)
	}
	return nil
}

// Undeploy reverses Deploy and returns the number of advertisements
// retracted; it never fails. With no runtime to ask which operators still
// run, it retracts by owner: ads the plan merely reused stay with the
// deployment that created them (see Engine.Undeploy).
func (s *System) Undeploy(d Deployment) (int, error) {
	if d.Query == nil || d.Plan == nil {
		return 0, nil
	}
	removed := s.Registry.RetractPlan(d.Query, d.Plan)
	s.tracker.RemovePlan(d.Plan)
	if d.stmt != nil {
		s.unpin(d.stmt)
	}
	return removed, nil
}

// PlanCQL parses a SQL-like continuous query (the paper's query syntax;
// see internal/cql for the grammar) against the catalog and plans it with
// the chosen algorithm — predicates, containment and aggregates included
// — for Deploy to commit:
//
//	d, err := sys.PlanCQL(`SELECT FLIGHTS.STATUS, CHECK-INS.STATUS
//	                       FROM FLIGHTS, CHECK-INS
//	                       WHERE FLIGHTS.DEPARTING = 'ATLANTA'
//	                         AND FLIGHTS.NUM = CHECK-INS.FLNUM`, sink, hnp.AlgoTopDown)
//
// A text with a standing deployment is not parsed or rewritten again: the
// query is a copy of its prepared template with its own ID and sink.
func (s *System) PlanCQL(stmt string, sink netgraph.NodeID, algo Algorithm) (Deployment, error) {
	p, q, err := s.prepare(stmt)
	if err != nil {
		return Deployment{}, err
	}
	q.ID, q.Sink = s.allocQueryID(), sink
	if obs.On() {
		s.Obs.Counter("rewrite.rules_applied").Add(int64(p.out.RulesApplied))
		s.Obs.Gauge("rewrite.bytes_saved").Add(p.out.BytesSaved())
	}
	if tr := s.Obs.Tracer(); tr.On() && p.out.RulesApplied > 0 {
		tr.Emit(obs.Event{
			Kind: obs.KindRewriteApplied, Trace: obs.QueryTrace(q.ID),
			Query: q.ID, Node: obs.NoID,
			Value: p.out.BytesSaved(), Aux: float64(p.out.RulesApplied),
			Detail: p.out.TraceString(),
		})
	}
	d := Deployment{Query: q, Rewrite: &p.out, stmt: p}
	if !p.out.NoOp {
		d.Result, err = s.PlanQuery(q, algo, s.Registry)
	}
	if err != nil {
		return Deployment{}, err
	}
	return d, nil
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
	switch algo {
	case AlgoTopDown:
		return core.TopDownOpts(s.Hierarchy, s.Catalog, q, reg, opts)
	case AlgoBottomUp:
		return core.BottomUpOpts(s.Hierarchy, s.Catalog, q, reg, opts)
	case AlgoOptimal:
		return core.OptimalOpts(s.Graph, s.Hierarchy.Paths(), s.Catalog, q, reg, opts)
	case AlgoPlanThenDeploy:
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
