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
//	dep, _ := sys.Plan([]hnp.StreamID{flights, weather}, 5, hnp.AlgoTopDown)
//	_ = sys.Deploy(dep)                        // commit: advertise and book it
//	fmt.Println(dep.Plan, dep.Cost)
//
// Deploy advertises the plan's operators, so later plans reuse them
// whenever that is cheaper than duplicating work.
package hnp

import (
	"hnp/internal/ads"
	"hnp/internal/core"
	"hnp/internal/engine"
	"hnp/internal/hierarchy"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
	"hnp/internal/query/rewrite"
	"hnp/internal/stats"
)

// Re-exported types. Aliases keep one set of method sets and let the
// examples and external tooling use the library without touching internal
// packages directly.
type (
	// System ties a network, its clustering hierarchy, a stream catalog
	// and an advertisement registry into one optimization endpoint: the
	// planning half of the lifecycle engine (internal/engine), where its
	// methods and concurrency contract are documented.
	System = engine.System
	// Deployment is a planned query, which Deploy commits.
	Deployment = engine.Deployment
	// Algorithm selects the optimizer the Plan methods run.
	Algorithm = engine.Algorithm
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

// EnableTelemetry does nothing: every System's metrics always record into
// its own registry. It stays only because the frozen benchmark harness in
// bench/ calls it.
func EnableTelemetry() {}

// DisableTelemetry does nothing either. It stays only because the frozen
// benchmark harness in bench/ calls it.
func DisableTelemetry() {}

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
	return netgraph.MustTransitStub(n, stats.NewRand(seed))
}

// The optimizers an Algorithm selects.
const (
	AlgoTopDown        = engine.AlgoTopDown        // the paper's Top-Down: bounded sub-optimality
	AlgoBottomUp       = engine.AlgoBottomUp       // the paper's Bottom-Up: smaller search space, weaker guarantees
	AlgoOptimal        = engine.AlgoOptimal        // exhaustive joint optimum: exact but unscalable
	AlgoPlanThenDeploy = engine.AlgoPlanThenDeploy // phased baseline: selectivity-only plan, then optimal placement
)

// ParseAlgorithm resolves an algorithm's name as Algorithm.String prints
// it ("top-down", "bottom-up", "optimal", "plan-then-deploy").
func ParseAlgorithm(name string) (Algorithm, bool) { return engine.ParseAlgorithm(name) }

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
	return engine.Build(g, g.ShortestPaths(m), query.NewCatalog(0.01), maxCS, seed)
}
