// Package iflow is a simulated distributed stream-processing runtime in
// the mold of the IFLOW system the paper prototypes on: physical nodes
// exchange protocol messages and stream tuples over links with real
// propagation delays and per-byte costs, deployed query plans execute
// windowed symmetric hash joins, and a middleware layer re-triggers
// optimization when network conditions change. It substitutes for the
// paper's 32-node Emulab testbed with deterministic, reproducible timing.
package iflow

import (
	"fmt"
	"math"
	"math/rand"

	"hnp/internal/des"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
)

// Tuple is one data item on a stream.
type Tuple struct {
	// Key is the join attribute (e.g. a flight number); all streams join
	// on this shared attribute, as in the paper's OIS scenario.
	Key int64
	// Size is the tuple's size in cost units (bytes).
	Size float64
	// Born is the creation time of the oldest base tuple it contains,
	// used to measure end-to-end latency.
	Born float64
}

// The runtime's physical constants mirror the scale of the paper's
// testbed: millisecond link latencies dominate, planning costs
// microseconds per candidate.
const (
	// computePerPlan is coordinator CPU seconds per candidate solution
	// examined during planning; deployment time scales with search space.
	computePerPlan = 2e-6
	// hopOverhead is per-message processing overhead in seconds added to
	// propagation delay for protocol messages.
	hopOverhead = 0.0005
	// Window is the join window in seconds for symmetric hash joins.
	Window = 10.0
)

// Config holds the runtime's one tunable.
type Config struct {
	// KeyDomain is the number of distinct join-key values; the empirical
	// pairwise join selectivity is Window/KeyDomain per second of window.
	KeyDomain int64
}

// DefaultConfig returns the configuration of every runtime but Fig 11's:
// a key domain of 1000 values.
func DefaultConfig() Config { return Config{KeyDomain: 1000} }

type opKey struct {
	sig  string
	node netgraph.NodeID
}

// keyOf returns the key of the operator a plan identity names.
func keyOf(r query.OpRef) opKey { return opKey{sig: r.Sig, node: r.Loc} }

type side int

const (
	leftSide side = iota
	rightSide
)

// subscription routes an operator's output to one consumer: a side of
// another operator, or a query's sink. Subscriptions compare with ==.
type subscription struct {
	op   *Operator  // consumer operator; nil for a sink
	sink *SinkStats // consumer sink; nil for an operator
	side side
}

// to is the node the subscription delivers at.
func (s subscription) to() netgraph.NodeID {
	if s.sink != nil {
		return s.sink.Node
	}
	return s.op.key.node
}

// Operator is a deployed stream operator: a base-stream tap (no
// children), a windowed symmetric hash join, or a residual filter
// narrowing a contained stream to a stricter query's predicates.
type Operator struct {
	key    opKey
	isBase bool
	rate   float64 // base emission rate, tuples/sec (base taps only)

	// isFilter marks residual filters; passProb is the fraction of
	// upstream tuples satisfying the extra predicates.
	isFilter bool
	passProb float64

	// isAgg marks windowed aggregations; one summary tuple is emitted per
	// tumbling window that saw input.
	isAgg     bool
	aggWindow float64
	aggCount  int64
	aggBorn   float64
	aggNext   float64

	// expRate is the operator's expected output rate in the planner's
	// cost model, used to derive filter pass probabilities.
	expRate float64

	// width is the byte size of tuples this operator emits, resolved at
	// creation from the plan node (PlanNode.TupleWidth). Widths never
	// change over an operator's life — a differently-projected stream has
	// a different signature and is a different operator.
	width float64

	window  float64
	win     [2]window // buffered inputs, indexed by side
	subs    []subscription
	in      []*Operator // producers, once per subscription they hold into it
	refs    int         // deployments using this operator
	retired bool        // left rt.ops (see retire): arriving tuples are dropped

	// OutCount / OutBytes measure produced output.
	OutCount int64
	OutBytes float64
}

// StateBytes returns the size of the operator's migratable state right
// now: buffered join-window tuples plus a pending aggregation accumulator.
// This is exactly what Migrate would ship if the operator moved, so
// adaptive controllers price a candidate move's churn from it before
// committing.
func (op *Operator) StateBytes() float64 {
	var b float64
	op.buffered(func(_ side, t Tuple) { b += t.Size })
	if op.isAgg && op.aggCount > 0 {
		b += op.width
	}
	return b
}

// buffered calls f for every tuple in the join windows: the left input's
// then the right's, each in arrival order — the order Migrate ships them
// in and every float sum over them adds in.
func (op *Operator) buffered(f func(s side, t Tuple)) {
	for s := range op.win {
		for i, w := 0, &op.win[s]; i < w.n; i++ {
			f(side(s), w.at(i))
		}
	}
}

// Refs returns how many deployment plan nodes currently hold this
// operator. A migration that releases fewer references than this leaves
// the operator running — adaptive controllers use the count to predict
// which retired-from-the-plan operators will actually be collected (and
// stop consuming transport) versus survive shared by other deployments.
func (op *Operator) Refs() int { return op.refs }

// ExpRate returns the output rate the planner expected of this operator
// when it was deployed. Residual filter pass probabilities are derived
// from it (narrowed rate / base expected rate), so predicting a
// containment reuse's physical rate requires it alongside the measured
// base rate.
func (op *Operator) ExpRate() float64 { return op.expRate }

// SubscribedBeyond reports whether anything other than the given consumer
// operator (sig at node) or the given query's sink subscribes to this
// operator. References alone understate sharing: a containment reuse
// subscribes a residual filter to its base operator without holding a
// reference on it, and such a subscriber keeps the operator — and its
// whole upstream chain — alive through a migration that releases every
// reference.
func (op *Operator) SubscribedBeyond(consumerSig string, consumerLoc netgraph.NodeID, queryID int) bool {
	for _, s := range op.subs {
		if s.sink != nil {
			if s.sink.query != queryID {
				return true
			}
			continue
		}
		if s.op.key.sig != consumerSig || s.op.key.node != consumerLoc {
			return true
		}
	}
	return false
}

// SinkStats accumulates per-query delivery statistics.
type SinkStats struct {
	Node       netgraph.NodeID
	Tuples     int64
	Bytes      float64
	LatencySum float64

	// width is the emitting root operator's tuple width; mixed is set if
	// a migration ever changed it after deliveries, which relaxes the
	// exact per-sink byte invariant.
	width float64
	mixed bool
	query int // the ID of the query the sink belongs to
}

// MeanLatency returns the average end-to-end delivery latency in seconds,
// or 0 before the first tuple arrives (never divides by zero).
func (s *SinkStats) MeanLatency() float64 {
	if s == nil || s.Tuples == 0 {
		return 0
	}
	return s.LatencySum / float64(s.Tuples)
}

// Rate returns the delivery rate in tuples per second over the elapsed
// simulation time, or 0 when no time has passed.
func (s *SinkStats) Rate(elapsed float64) float64 {
	if s == nil || elapsed <= 0 {
		return 0
	}
	return float64(s.Tuples) / elapsed
}

// Runtime is the simulated IFLOW deployment substrate.
type Runtime struct {
	Sim   *des.Sim[delivery]
	G     *netgraph.Graph
	Cost  *netgraph.Paths // cost-metric paths: stream routing + accounting
	Delay *netgraph.Paths // delay-metric paths: message latency

	cfg Config
	rng *rand.Rand

	ops     map[opKey]*Operator
	sinks   map[int]*SinkStats
	deploys map[int]*deployment

	// OnRetire, when set, learns of every operator that leaves the
	// runtime (collected or crashed), as it leaves: the stream sig stopped
	// existing at node.
	OnRetire func(sig string, node netgraph.NodeID)

	// TotalCost is the accumulated bytes×link-cost of all transfers; the
	// deployed cost per unit time is TotalCost / elapsed time.
	TotalCost  float64
	TotalBytes float64

	// Count-based transport statistics. The simulation is single-threaded
	// (see des.Sim), so plain fields suffice; rates derived from them must
	// come from Stats/CostRate, which guard the zero-time window.
	//
	// TuplesTransferred counts tuples that crossed at least one link
	// (node-local handoffs are free and not counted).
	TuplesTransferred int64
	// TuplesDropped counts tuples discarded in flight because their
	// consumer was undeployed before arrival.
	TuplesDropped int64
	// WindowExpired counts tuples evicted from join windows.
	WindowExpired int64
	// TuplesSent counts every tuple handed to the transport for delivery,
	// node-local handoffs included. Each sent tuple settles exactly once
	// when its delivery arrives (sink arrival, operator receive, or
	// in-flight drop), so TuplesSent - tuplesSettled is the number of
	// tuples currently in flight — the conservation ledger the chaos
	// harness checks.
	TuplesSent    int64
	tuplesSettled int64
	// StateTuplesShipped / StateBytesShipped count window and accumulator
	// tuples Migrate copied from a moved operator's old host to its new
	// one. Shipped state crosses links synchronously (it is not re-sent
	// through the transport), so it is accounted separately from
	// TuplesTransferred; the conservation invariant ties TotalBytes to the
	// sum of both.
	StateTuplesShipped int64
	StateBytesShipped  float64

	// minTupleSize/maxTupleSize bracket the sizes of every tuple ever
	// charged to TotalBytes (link transfers and shipped state). With
	// uniform sizes the byte-conservation invariant is exact; with
	// per-operator widths it degrades to these bounds.
	minTupleSize float64
	maxTupleSize float64

	// costSpare/delaySpare are the retired halves of the two snapshot
	// ping-pong pairs refreshPaths recycles: each refresh writes into the
	// spare and demotes the previous snapshot to spare, so steady-state
	// incremental refreshes allocate nothing. The runtime exclusively owns
	// both chains (planners and the hierarchy snapshot their own paths).
	costSpare  *netgraph.Paths
	delaySpare *netgraph.Paths

	// Telemetry handles (nil until BindObs; all nil-safe no-ops then).
	obsTransferred *obs.Counter
	obsDropped     *obs.Counter
	obsExpired     *obs.Counter
	obsCost        *obs.Gauge

	// Path-maintenance telemetry (see refreshPaths).
	obsRefreshFull *obs.Counter
	obsRefreshIncr *obs.Counter
	obsRefreshRows *obs.Histogram

	// Migration telemetry (see Migrate).
	obsMigrations    *obs.Counter
	obsMigKept       *obs.Counter
	obsMigCreated    *obs.Counter
	obsMigRetired    *obs.Counter
	obsMigMoved      *obs.Counter
	obsMigBytesSaved *obs.Gauge
	obsStateShipped  *obs.Counter

	// Pre-bound span sources for the deployment primitives (nil-safe).
	spDeploy  *obs.SpanSource
	spMigrate *obs.SpanSource

	// tr is the flight recorder shared with the binding registry;
	// traceParent is the causal parent for the next deploy/migrate trace
	// emission (see SetTraceParent).
	tr          *obs.Tracer
	traceParent uint64
}

// deployment records one query's hold on the runtime: the query, the
// placed plan it currently runs (the old side of the next migration
// diff), and the operators it references.
type deployment struct {
	q    *query.Query
	plan *query.PlanNode
	held []opKey
	// ir caches the running plan's canonical IR so successive migrations
	// flatten only the incoming plan, not the deployed one again. Built
	// lazily on the first migration (Deploy never needs it).
	ir []query.IROp
}

// BindObs connects the runtime to a telemetry registry: transport counts
// ("iflow.tuples_transferred", "iflow.tuples_dropped",
// "iflow.window_expired" counters), the accumulated bytes×cost
// ("iflow.bytes_cost" gauge), and migration activity ("iflow.migrations"
// plus the per-action "iflow.migrate_ops_*" counters and the cumulative
// "iflow.migrate_bytes_saved" gauge) are recorded there.
func (rt *Runtime) BindObs(reg *obs.Registry) {
	rt.obsTransferred = reg.Counter("iflow.tuples_transferred")
	rt.obsDropped = reg.Counter("iflow.tuples_dropped")
	rt.obsExpired = reg.Counter("iflow.window_expired")
	rt.obsCost = reg.Gauge("iflow.bytes_cost")
	rt.obsMigrations = reg.Counter("iflow.migrations")
	rt.obsMigKept = reg.Counter("iflow.migrate_ops_kept")
	rt.obsMigCreated = reg.Counter("iflow.migrate_ops_created")
	rt.obsMigRetired = reg.Counter("iflow.migrate_ops_retired")
	rt.obsMigMoved = reg.Counter("iflow.migrate_ops_moved")
	rt.obsMigBytesSaved = reg.Gauge("iflow.migrate_bytes_saved")
	rt.obsStateShipped = reg.Counter("iflow.state_shipped")
	rt.obsRefreshFull = reg.Counter("paths.refresh_full")
	rt.obsRefreshIncr = reg.Counter("paths.refresh_incremental")
	rt.obsRefreshRows = reg.Histogram("paths.rows_recomputed",
		[]float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	rt.spDeploy = reg.SpanSource("iflow.deploy")
	rt.spMigrate = reg.SpanSource("iflow.migrate")
	rt.tr = reg.Tracer()
}

// SetTraceParent sets the causal parent of the next trace event the
// runtime emits (the next Deploy/Migrate/Undeploy), consumed once. The
// adaptation controller uses it to parent MigrationApplied events on the
// gate decision that approved the migration. The runtime is
// single-threaded on its simulation clock, so a plain field suffices.
func (rt *Runtime) SetTraceParent(id uint64) { rt.traceParent = id }

func (rt *Runtime) takeTraceParent() uint64 {
	p := rt.traceParent
	rt.traceParent = 0
	return p
}

// New builds a runtime over a network. Streams route along cost-shortest
// paths; protocol messages along delay-shortest paths.
func New(g *netgraph.Graph, cfg Config, seed int64) *Runtime {
	return NewWithCost(g, g.ShortestPaths(netgraph.MetricCost), cfg, seed)
}

// NewWithCost is New over a cost-metric snapshot of g, which the runtime
// takes over: its refresh chain recycles the snapshot's slabs, so nothing
// else may hold it. A stale snapshot is refreshed on first use.
func NewWithCost(g *netgraph.Graph, cost *netgraph.Paths, cfg Config, seed int64) *Runtime {
	rt := &Runtime{
		G:       g,
		Cost:    cost,
		Delay:   g.ShortestPaths(netgraph.MetricDelay),
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(seed)),
		ops:     map[opKey]*Operator{},
		sinks:   map[int]*SinkStats{},
		deploys: map[int]*deployment{},
	}
	rt.Sim = des.New(rt.settle)
	return rt
}

// refreshPaths brings any path snapshot that has gone stale because the
// underlying graph was mutated (directly or via UpdateLinkCost) back up
// to date. Entry points call it so routing and accounting never silently
// use distances from a network that no longer exists.
//
// Refreshes are incremental where the graph's delta log permits — only
// the source rows a mutation actually moved are re-run — and recycle the
// previous snapshot's slabs, so steady-state drift maintenance is
// allocation-free. Results are bit-identical to a full recompute.
func (rt *Runtime) refreshPaths() {
	rt.Cost, rt.costSpare = rt.refreshOne(rt.Cost, rt.costSpare)
	rt.Delay, rt.delaySpare = rt.refreshOne(rt.Delay, rt.delaySpare)
}

// refreshOne advances one snapshot chain, returning the fresh snapshot
// and the demoted spare, and records refresh scope telemetry.
func (rt *Runtime) refreshOne(cur, spare *netgraph.Paths) (*netgraph.Paths, *netgraph.Paths) {
	out, stats := cur.RefreshFrom(rt.G, spare)
	if out == cur {
		return cur, spare
	}
	switch stats.Mode {
	case netgraph.RefreshIncremental:
		rt.obsRefreshIncr.Inc()
	case netgraph.RefreshFull:
		rt.obsRefreshFull.Inc()
	}
	rt.obsRefreshRows.Observe(float64(stats.RowsRecomputed))
	if rt.tr.On() {
		rt.tr.Emit(obs.Event{
			Kind:  obs.KindPathRefresh,
			VTime: rt.Sim.Now(),
			Query: obs.NoID, Node: obs.NoID,
			Value:  float64(stats.RowsRecomputed),
			Aux:    float64(stats.EdgesChanged),
			Detail: stats.Mode.String() + " " + out.Metric().String(),
		})
	}
	return out, cur
}

// delivery is a tuple in flight, the event queue's message type: bound
// for the consumer of the subscription it was emitted on.
type delivery struct {
	subscription
	t Tuple
}

// transfer accounts a tuple moving between two nodes and queues its
// delivery for the destination's arrival time.
func (rt *Runtime) transfer(from, to netgraph.NodeID, d delivery) {
	if from != to {
		rt.TotalCost += d.t.Size * rt.Cost.Dist(from, to)
		rt.TotalBytes += d.t.Size
		rt.noteSize(d.t.Size)
		rt.TuplesTransferred++
		rt.obsTransferred.Inc()
		rt.obsCost.Set(rt.TotalCost)
	}
	rt.TuplesSent++
	rt.Sim.Send(rt.Delay.Dist(from, to), d)
}

// settle lands one delivery: sink accounting, or an operator step.
func (rt *Runtime) settle(d delivery) {
	rt.tuplesSettled++
	if d.sink == nil {
		rt.receive(d.op, d.side, d.t)
		return
	}
	d.sink.Tuples++
	d.sink.Bytes += d.t.Size
	d.sink.LatencySum += rt.Sim.Now() - d.t.Born
}

// noteSize folds one byte-charged tuple size into the min/max bracket the
// conservation invariant checks against.
func (rt *Runtime) noteSize(s float64) {
	if rt.maxTupleSize == 0 || s < rt.minTupleSize {
		rt.minTupleSize = s
	}
	if s > rt.maxTupleSize {
		rt.maxTupleSize = s
	}
}

// InFlight returns the number of tuples handed to the transport whose
// delivery has not yet arrived. It is never negative and reaches zero
// once the simulation quiesces (sources ended, event queue drained).
func (rt *Runtime) InFlight() int64 { return rt.TuplesSent - rt.tuplesSettled }

// emit fans an operator's output tuple out to all subscribers.
func (rt *Runtime) emit(op *Operator, t Tuple) {
	op.OutCount++
	op.OutBytes += t.Size
	for _, sub := range op.subs {
		rt.transfer(op.key.node, sub.to(), delivery{sub, t})
	}
}

// receive runs one operator step: residual filters pass tuples
// probabilistically; joins expire their window, probe the opposite side,
// emit matches, and insert.
func (rt *Runtime) receive(op *Operator, s side, t Tuple) {
	if op.retired {
		rt.TuplesDropped++
		rt.obsDropped.Inc()
		return // operator was undeployed while the tuple was in flight
	}
	if op.isFilter {
		if rt.rng.Float64() < op.passProb {
			// Residual filters re-emit at their own width (a no-op for
			// width-free plans, whose upstream ships the same default).
			t.Size = op.width
			rt.emit(op, t)
		}
		return
	}
	if op.isAgg {
		now := rt.Sim.Now()
		if now >= op.aggNext && op.aggCount > 0 {
			rt.emit(op, Tuple{Key: op.aggCount, Size: op.width, Born: op.aggBorn})
			op.aggCount, op.aggBorn = 0, 0
		}
		if op.aggCount == 0 {
			op.aggBorn = t.Born
			op.aggNext = now + op.aggWindow
		}
		op.aggCount++
		return
	}
	horizon := rt.Sim.Now() - op.window
	if n := op.win[leftSide].expire(horizon) + op.win[rightSide].expire(horizon); n > 0 {
		rt.WindowExpired += int64(n)
		rt.obsExpired.Add(int64(n))
	}
	other := &op.win[1-s]
	for i := other.first(t.Key); i >= 0; i = other.ring[i].next {
		if o := &other.ring[i].t; o.Key == t.Key {
			// Join outputs are projected to the operator's output width
			// (the global tuple width when no schema is declared), keeping
			// data rates in the same units as the analytic cost model.
			out := Tuple{Key: t.Key, Size: op.width, Born: min(t.Born, o.Born)}
			rt.emit(op, out)
		}
	}
	op.win[s].insert(t)
}

// checkRate admits only a finite positive source rate. +Inf makes every
// inter-arrival gap zero — the tick re-queues itself at the current
// instant forever — and NaN makes the gap, and so an event time, NaN.
func checkRate(sig string, rate float64) error {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return fmt.Errorf("iflow: rate %g for source %s is not finite and positive", rate, sig)
	}
	return nil
}

// StartSource registers a base stream tap at its node and schedules
// Poisson tuple emissions at the given rate (tuples per second) for the
// lifetime of the simulation window driven by RunFor. Its tuples are
// width-free (query.DefaultTupleWidth) until Deploy stamps a plan's width.
func (rt *Runtime) StartSource(sig string, node netgraph.NodeID, rate float64, until float64) (*Operator, error) {
	if err := checkRate(sig, rate); err != nil {
		return nil, err
	}
	key := opKey{sig: sig, node: node}
	if _, ok := rt.ops[key]; ok {
		return nil, fmt.Errorf("iflow: source %s@%d already registered", sig, node)
	}
	op := &Operator{key: key, isBase: true, rate: rate, expRate: rate, width: query.DefaultTupleWidth}
	rt.ops[key] = op
	var tick func()
	tick = func() {
		if rt.Sim.Now() >= until || op.retired {
			return
		}
		t := Tuple{
			Key:  rt.rng.Int63n(rt.cfg.KeyDomain),
			Size: op.width,
			Born: rt.Sim.Now(),
		}
		rt.emit(op, t)
		// Read the rate from the operator (not the captured argument) so
		// SetSourceRate retunes the very next inter-arrival gap.
		rt.Sim.Schedule(rt.rng.ExpFloat64()/op.rate, tick)
	}
	rt.Sim.Schedule(rt.rng.ExpFloat64()/op.rate, tick)
	return op, nil
}

// Operator returns the deployed operator with the given signature at the
// given node, or nil.
func (rt *Runtime) Operator(sig string, node netgraph.NodeID) *Operator {
	return rt.ops[opKey{sig: sig, node: node}]
}

// NumOperators returns the number of live operators (including base taps).
func (rt *Runtime) NumOperators() int { return len(rt.ops) }

// Sink returns the delivery statistics for a query (nil before Deploy).
func (rt *Runtime) Sink(queryID int) *SinkStats { return rt.sinks[queryID] }

// DeployedPlan returns the plan a deployed query currently runs, or nil
// when the query is not deployed. It is the old side of the diff the next
// Migrate computes.
func (rt *Runtime) DeployedPlan(queryID int) *query.PlanNode {
	if dep := rt.deploys[queryID]; dep != nil {
		return dep.plan
	}
	return nil
}

// DeployedQuery returns a deployed query, or nil when it is not deployed.
func (rt *Runtime) DeployedQuery(queryID int) *query.Query {
	if dep := rt.deploys[queryID]; dep != nil {
		return dep.q
	}
	return nil
}

// RunFor advances the simulation by d seconds of virtual time.
func (rt *Runtime) RunFor(d float64) { rt.Sim.RunUntil(rt.Sim.Now() + d) }

// CostRate returns accumulated transfer cost divided by elapsed time —
// the measured analogue of the optimizers' cost-per-unit-time objective.
// It is 0 before any virtual time has passed; consult Stats for the raw
// counts when the rate alone cannot distinguish "no traffic" from "no
// elapsed window".
func (rt *Runtime) CostRate() float64 {
	if rt.Sim.Now() <= 0 {
		return 0
	}
	return rt.TotalCost / rt.Sim.Now()
}

// Stats is a point-in-time copy of the runtime's count-based transport
// statistics. Counts are exact; every derived rate guards the zero-time
// window, so a freshly built runtime reports zeros, not NaNs.
type Stats struct {
	TuplesTransferred  int64
	TuplesDropped      int64
	WindowExpired      int64
	TuplesSent         int64
	TuplesInFlight     int64
	StateTuplesShipped int64
	TotalCost          float64
	TotalBytes         float64
	Elapsed            float64
	Operators          int
}

// CostRate returns TotalCost per second of elapsed virtual time (0 when
// no time has passed).
func (s Stats) CostRate() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return s.TotalCost / s.Elapsed
}

// Stats snapshots the runtime's transport counters.
func (rt *Runtime) Stats() Stats {
	return Stats{
		TuplesTransferred:  rt.TuplesTransferred,
		TuplesDropped:      rt.TuplesDropped,
		WindowExpired:      rt.WindowExpired,
		TuplesSent:         rt.TuplesSent,
		TuplesInFlight:     rt.InFlight(),
		StateTuplesShipped: rt.StateTuplesShipped,
		TotalCost:          rt.TotalCost,
		TotalBytes:         rt.TotalBytes,
		Elapsed:            rt.Sim.Now(),
		Operators:          len(rt.ops),
	}
}
