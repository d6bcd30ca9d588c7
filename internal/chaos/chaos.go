// Package chaos is a seed-deterministic fault and churn simulation
// harness for the full optimizer/runtime stack. It composes randomized
// adversarial schedules — node failures and recoveries, link-cost drift,
// query arrival and teardown, stream-rate shifts — against a live system
// (netgraph topology, clustering hierarchy, Top-Down/Bottom-Up planners,
// advertisement registry, IFLOW runtime on the discrete-event clock) and
// checks cross-cutting invariants after every event: hierarchy
// well-formedness, plan/deployment consistency, advertisement liveness,
// path-snapshot freshness, and transport conservation.
//
// Everything derives from one seed: the topology, the workload, the event
// schedule, and every tuple the runtime moves. A failing run therefore
// reproduces exactly from its seed, and the recorded event trace replays
// the history that led to the violation. The paper's figures (5-11)
// evaluate static snapshots; this harness is the correctness backstop for
// the adaptation machinery those figures never touch (PAPER §6).
package chaos

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"

	"hnp/internal/adapt"
	"hnp/internal/ads"
	"hnp/internal/core"
	"hnp/internal/hierarchy"
	"hnp/internal/iflow"
	"hnp/internal/load"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
	"hnp/internal/query/rewrite"
	"hnp/internal/workload"
)

// ProfileRateShift selects the adaptive-control stress schedule: the whole
// query pool deploys upfront, the event mix narrows to live stream-rate
// shifts, link-cost bursts and idle time, and rate shifts hit the live
// source taps only — the catalog the planners consult learns the truth
// exclusively through the controller's windowed calibration. This is the
// schedule the closed-loop controller is validated on.
const ProfileRateShift = "rateshift"

// Config parameterizes one chaos run. Identical configs (seed included)
// produce identical runs, event for event and tuple for tuple.
type Config struct {
	// Seed drives everything: topology, hierarchy, workload, schedule,
	// and the runtime's tuple randomness.
	Seed int64
	// Nodes is the transit-stub network size.
	Nodes int
	// MaxCS is the hierarchy's cluster size cap.
	MaxCS int
	// Streams is the number of base streams in the catalog.
	Streams int
	// Queries is the size of the candidate query pool events draw from.
	Queries int
	// Events is the schedule length.
	Events int
	// MeanStep is the mean virtual seconds advanced before each event
	// (exponentially distributed, so perturbations hit at ragged times).
	MeanStep float64
	// Migrate adds plan-migration churn to the schedule: deployed queries
	// are periodically re-planned against current conditions and the new
	// plan applied as a diff-based migration (iflow.Migrate) rather than a
	// teardown. Off by default so existing seeds replay unchanged.
	Migrate bool
	// Schemas attaches a synthetic per-attribute schema to every catalog
	// stream and runs the logical rewrite pipeline over the pool's
	// predicate-bearing queries (column pruning keyed to the predicate
	// attribute), so operators run at heterogeneous tuple widths and the
	// width-bracket transport invariants are exercised. The pruning step
	// honors the global pushdown kill switch; the schemas themselves do
	// not. Off by default so existing seeds replay unchanged.
	Schemas bool
	// Profile selects the event mix: "" is the default fault/churn
	// schedule; ProfileRateShift is the adaptive-control stress schedule.
	Profile string
	// Adapt, when non-nil, attaches a closed-loop re-optimization
	// controller (internal/adapt) to the run: every pool query is placed
	// under control and the controller's migrations are mirrored into the
	// harness bookkeeping. Only meaningful with ProfileRateShift.
	Adapt *adapt.Config
	// Runtime tunes the IFLOW engine's physical constants.
	Runtime iflow.Config
}

// DefaultConfig returns the standard chaos shape: a 24-node network,
// 8 streams, a pool of 10 queries, 200 events at ~0.4 virtual seconds
// apart.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:     seed,
		Nodes:    24,
		MaxCS:    6,
		Streams:  8,
		Queries:  10,
		Events:   200,
		MeanStep: 0.4,
		Runtime:  iflow.DefaultConfig(),
	}
}

// RateShiftConfig returns the standard adaptive-control stress shape: the
// default topology and pool, 40 events at ~3 virtual seconds apart drawn
// from the rate-shift profile, with the default controller tuning at a
// 15-second control interval. The pacing matters: shifts are regime
// changes that persist for several control intervals (roughly one shift
// per stream per 45 virtual seconds), long enough for a migration's churn
// to pay back — a schedule that re-rolls every rate faster than the
// control period rewards never adapting at all.
func RateShiftConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Profile = ProfileRateShift
	cfg.Events = 40
	cfg.MeanStep = 3.0
	a := adapt.DefaultConfig()
	a.Interval = 15
	cfg.Adapt = &a
	return cfg
}

func (cfg Config) validate() error {
	switch {
	case cfg.Profile != "" && cfg.Profile != ProfileRateShift:
		return fmt.Errorf("chaos: unknown profile %q", cfg.Profile)
	case cfg.Nodes < 8:
		return fmt.Errorf("chaos: need at least 8 nodes, got %d", cfg.Nodes)
	case cfg.MaxCS < 2:
		return fmt.Errorf("chaos: maxCS must be >= 2, got %d", cfg.MaxCS)
	case cfg.Streams < 6:
		return fmt.Errorf("chaos: need at least 6 streams for the workload shape, got %d", cfg.Streams)
	case cfg.Queries < 1:
		return fmt.Errorf("chaos: empty query pool")
	case cfg.Events < 1:
		return fmt.Errorf("chaos: empty schedule")
	case cfg.MeanStep <= 0:
		return fmt.Errorf("chaos: non-positive mean step %g", cfg.MeanStep)
	}
	return nil
}

// horizon is the virtual lifetime of sources: comfortably past the
// expected schedule span so streams stay live through the whole run.
func (cfg Config) horizon() float64 {
	return cfg.MeanStep*float64(cfg.Events)*2 + 30
}

// queryState tracks one pool query through the run.
type queryState int

const (
	stateIdle queryState = iota
	stateDeployed
)

// sinkBase is the delivery baseline monotonicity is checked against.
type sinkBase struct {
	tuples  int64
	bytes   float64
	latency float64
}

// World is one chaos run in progress: the full stack plus the harness's
// own bookkeeping of what should be true.
type World struct {
	cfg   Config
	rng   *rand.Rand // event schedule + parameter draws
	g     *netgraph.Graph
	paths *netgraph.Paths
	// pathsSpare is the retired half of the harness's snapshot ping-pong:
	// link events delta-refresh w.paths into it and demote the old
	// snapshot (released by the hierarchy at RebindRows) to spare.
	pathsSpare *netgraph.Paths
	h          *hierarchy.Hierarchy
	cat        *query.Catalog
	reg        *ads.Registry
	rt         *iflow.Runtime
	pool       []*query.Query
	qByID      map[int]*query.Query
	plans      map[int]*query.PlanNode
	state      map[int]queryState
	live       []bool
	nLive      int
	minLive    int
	horizon    float64

	// tracker is the incremental load ledger, fed diff-aware at every
	// deploy/undeploy/recovery/migration; check() audits it against a
	// from-scratch recompute after every event.
	tracker *load.Tracker
	// ctl is the closed-loop controller (rate-shift profile with
	// Config.Adapt set), nil otherwise.
	ctl *adapt.Controller
	// liveRates is the ground truth the live taps emit at, keyed by
	// stream. Rate-shift profile events update it (and the taps) without
	// touching the catalog; the schedule draws shift factors from it so
	// event generation never depends on what the controller calibrated.
	liveRates map[query.StreamID]float64
	// planHist records each query's plan history (deploy + every
	// controller migration) for A→B→A oscillation detection.
	planHist     map[int][]string
	oscillations int

	trace     []Event
	counts    [9]int
	prev      iflow.Stats
	prevSinks map[int]sinkBase

	// obsReg carries the run's always-armed flight recorder: every causal
	// trace event the stack emits (deploys, calibration windows, gate
	// decisions, migrations, invariant audits) lands in its ring buffer,
	// so a violation's report can be accompanied by the decision history
	// that led to it. Metric collection stays gated on obs.Enabled; only
	// the tracer is armed unconditionally.
	obsReg *obs.Registry
	// forcedErr, when non-empty, makes the next invariant audit report a
	// violation — a test hook for exercising the flight-recorder dump path
	// without needing a real bug.
	forcedErr string
}

// Report summarizes a finished (or violated) run.
type Report struct {
	Seed      int64
	Events    int
	Counts    map[string]int
	Deployed  int
	Delivered int64
	Stats     iflow.Stats
	// Adapt carries the controller's decision counters (zero value when
	// no controller was attached).
	Adapt adapt.Stats
	// Oscillations counts A→B→A plan flips across controller migrations.
	Oscillations int
	Trace        []Event
	// Flight is the flight recorder's retained causal event history at
	// report time (oldest first) — on a violation, the decision chain
	// that led there. Dump with obs.WriteEventsJSONL.
	Flight []obs.Event
}

// TraceString renders the full replayable event trace.
func (r Report) TraceString() string {
	lines := make([]string, len(r.Trace))
	for i, e := range r.Trace {
		lines[i] = e.String()
	}
	return strings.Join(lines, "\n")
}

// New builds a world from the config: transit-stub topology, hierarchy,
// workload (a third of the pool carries a selection predicate so
// containment reuse is exercised under churn), advertisement registry and
// IFLOW runtime, all seeded from cfg.Seed.
func New(cfg Config) (*World, error) { return newWorld(cfg, true) }

// newWorld is New with the schema-mode column pruning of predicate queries
// made optional: prune=false builds the same world at full tuple widths,
// the reference side of the package's pushdown comparisons.
func newWorld(cfg Config, prune bool) (*World, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	buildRng := rand.New(rand.NewSource(cfg.Seed))
	g := netgraph.MustTransitStub(cfg.Nodes, buildRng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	h, err := hierarchy.Build(g, paths, cfg.MaxCS, buildRng)
	if err != nil {
		return nil, err
	}
	wlRng := rand.New(rand.NewSource(cfg.Seed ^ 0x77f00d))
	wl, err := workload.Generate(workload.Default(cfg.Streams, cfg.Queries), cfg.Nodes, wlRng)
	if err != nil {
		return nil, err
	}
	w := &World{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5eed5)),
		g:         g,
		paths:     paths,
		h:         h,
		cat:       wl.Catalog,
		reg:       ads.NewRegistry(),
		rt:        iflow.New(g, cfg.Runtime, cfg.Seed^0x7f1e),
		qByID:     map[int]*query.Query{},
		plans:     map[int]*query.PlanNode{},
		state:     map[int]queryState{},
		live:      make([]bool, cfg.Nodes),
		nLive:     cfg.Nodes,
		minLive:   max(cfg.MaxCS, cfg.Nodes/2),
		horizon:   cfg.horizon(),
		tracker:   load.NewTracker(),
		liveRates: map[query.StreamID]float64{},
		planHist:  map[int][]string{},
		prevSinks: map[int]sinkBase{},
		obsReg:    obs.NewRegistry(),
	}
	w.obsReg.Tracer().Enable()
	w.rt.BindObs(w.obsReg)
	w.h.BindObs(w.obsReg)
	for i := 0; i < wl.Catalog.NumStreams(); i++ {
		w.liveRates[query.StreamID(i)] = wl.Catalog.Stream(query.StreamID(i)).Rate
	}
	for i := range w.live {
		w.live[i] = true
	}
	if cfg.Schemas {
		// Schema widths come from a dedicated rng so Schemas=false runs
		// replay byte-identically to pre-schema seeds.
		srng := rand.New(rand.NewSource(cfg.Seed ^ 0x5c4e3a))
		for i := 0; i < wl.Catalog.NumStreams(); i++ {
			wl.Catalog.SetSchema(query.StreamID(i), query.Schema{
				{Name: "a", Width: 4 + float64(srng.Intn(13))},
				{Name: "b", Width: 8 + float64(srng.Intn(25))},
				{Name: "c", Width: 16 + float64(srng.Intn(97))},
			})
		}
	}
	// Canonical nested ranges: stricter queries arriving after weaker (or
	// predicate-free) ones over the same streams reuse their operators
	// through residual filters.
	ranges := []query.Range{{Lo: 0, Hi: 0.9}, {Lo: 0.05, Hi: 0.65}, {Lo: 0.1, Hi: 0.5}}
	for i, q := range wl.Queries {
		if i%3 == 1 {
			r := ranges[wlRng.Intn(len(ranges))]
			pq, err := query.NewQueryPred(q.ID, q.Sources, q.Sink,
				query.MustPredSet(query.Pred{Stream: q.Sources[0], Attr: "a", Range: r}))
			if err != nil {
				return nil, err
			}
			q = pq
			if cfg.Schemas && prune {
				// Pred queries select only the predicate attribute: column
				// pruning shrinks every source's shipped width, so the run
				// mixes pruned and full-width operators. The projection is
				// fixed (not rng-drawn) to keep the schedule identical with
				// and without pruning.
				proj := rewrite.Projection{
					Cols:      map[query.StreamID][]string{},
					JoinAttrs: map[query.StreamID][]string{},
				}
				for _, sid := range q.Sources {
					proj.Cols[sid] = []string{"a"}
					proj.JoinAttrs[sid] = []string{"a"}
				}
				rewrite.Apply(wl.Catalog, q, proj)
			}
		}
		w.pool = append(w.pool, q)
		w.qByID[q.ID] = q
		w.state[q.ID] = stateIdle
	}
	return w, nil
}

// Tracer exposes the run's always-armed flight recorder — the causal
// event history behind a violation, or the raw material for timeline
// reconstruction in tests.
func (w *World) Tracer() *obs.Tracer { return w.obsReg.Tracer() }

// DumpFlight writes the flight recorder's retained events as JSONL,
// oldest first.
func (w *World) DumpFlight(out io.Writer) error {
	return w.obsReg.Tracer().WriteJSONL(out)
}

// FailNextCheck forces the next invariant audit to report the given
// violation. Test hook: it exercises the violation-to-flight-dump path
// without needing a real bug.
func (w *World) FailNextCheck(msg string) { w.forcedErr = msg }

// Run executes the schedule, checking every invariant after every event,
// then quiesces the simulation (sources end, in-flight tuples drain) and
// performs a final audit including the zero-in-flight conservation check.
// The returned report always carries the trace, violation or not.
func (w *World) Run() (Report, error) {
	if w.cfg.Profile == ProfileRateShift {
		if err := w.startRateShift(); err != nil {
			return w.report(), fmt.Errorf("chaos: seed %d, rate-shift setup: %w", w.cfg.Seed, err)
		}
		if err := w.check(); err != nil {
			return w.report(), fmt.Errorf("chaos: seed %d, after rate-shift setup: %w", w.cfg.Seed, err)
		}
	}
	for i := 0; i < w.cfg.Events; i++ {
		e := w.nextEvent(i)
		if err := w.apply(&e); err != nil {
			w.trace = append(w.trace, e)
			return w.report(), fmt.Errorf("chaos: seed %d, event %s: %w", w.cfg.Seed, e.String(), err)
		}
		w.trace = append(w.trace, e)
		if err := w.check(); err != nil {
			return w.report(), fmt.Errorf("chaos: seed %d, after event %s: %w", w.cfg.Seed, e.String(), err)
		}
	}
	// Quiesce: run sources to the end of their lifetime, then drain every
	// in-flight delivery.
	if now := w.rt.Sim.Now(); now < w.horizon {
		w.rt.RunFor(w.horizon - now)
	}
	w.rt.Sim.Run()
	if err := w.check(); err != nil {
		return w.report(), fmt.Errorf("chaos: seed %d, after quiesce: %w", w.cfg.Seed, err)
	}
	if inFlight := w.rt.InFlight(); inFlight != 0 {
		return w.report(), fmt.Errorf("chaos: seed %d: %d tuples unaccounted for after quiesce (sent %d)",
			w.cfg.Seed, inFlight, w.rt.TuplesSent)
	}
	return w.report(), nil
}

func (w *World) report() Report {
	st := w.rt.Stats()
	var delivered int64
	deployed := 0
	for _, q := range w.pool {
		if s := w.rt.Sink(q.ID); s != nil {
			delivered += s.Tuples
		}
		if w.state[q.ID] == stateDeployed {
			deployed++
		}
	}
	counts := map[string]int{}
	for k, n := range w.counts {
		if n > 0 {
			counts[Kind(k).String()] = n
		}
	}
	r := Report{
		Seed:         w.cfg.Seed,
		Events:       len(w.trace),
		Counts:       counts,
		Deployed:     deployed,
		Delivered:    delivered,
		Stats:        st,
		Oscillations: w.oscillations,
		Trace:        w.trace,
		Flight:       w.obsReg.Tracer().Snapshot(),
	}
	if w.ctl != nil {
		r.Adapt = w.ctl.Stats()
	}
	return r
}

// startRateShift prepares the adaptive-control schedule: the whole pool is
// planned (consuming the schedule rng identically regardless of controller
// policy) and deployed, and — when configured — the controller is attached
// with every query under control.
//
// Each pool query is planned against an EMPTY advertisement registry —
// every deployment stands alone, as if the queries arrived before any
// cross-query optimization ran. The default profile already exercises
// reuse-dense arrival ordering; this profile isolates the re-optimization
// loop, which must discover both kinds of improvement at run time:
// consolidating duplicated work onto advertised intermediates, and
// re-placing operators as the live rates drift. All plans are advertised
// after deployment, so controller re-plans see the full reuse surface.
func (w *World) startRateShift() error {
	for _, q := range w.pool {
		res, _, err := w.planQueryWith(q, ads.NewRegistry())
		if err != nil {
			return fmt.Errorf("planner rejected pool query %d: %w", q.ID, err)
		}
		if err := w.rt.Deploy(q, res.Plan, w.cat, w.horizon); err != nil {
			return fmt.Errorf("runtime rejected plan %s: %w", res.Plan, err)
		}
		w.plans[q.ID] = res.Plan
		w.state[q.ID] = stateDeployed
		w.prevSinks[q.ID] = sinkBase{}
		w.tracker.AddPlan(res.Plan)
		w.planHist[q.ID] = []string{res.Plan.String()}
	}
	for _, q := range w.pool {
		w.reg.AdvertisePlan(q, w.plans[q.ID])
	}
	if w.cfg.Adapt != nil {
		w.ctl = adapt.New(w.rt, w.cat, w.ctlReplan, *w.cfg.Adapt)
		w.ctl.BindObs(w.obsReg)
		w.ctl.OnMigrate = w.onCtlMigrate
		for _, q := range w.pool {
			w.ctl.Track(q, w.plans[q.ID])
		}
		w.ctl.Run(w.horizon)
	}
	return nil
}

// ctlReplan is the controller's re-planner: always Top-Down against
// current (calibrated) conditions and advertisements. It deliberately
// bypasses planQuery — the controller must not consume the schedule rng,
// or its decisions would perturb the event sequence and break cross-policy
// comparability on a shared seed.
//
// The query's own advertisements are withheld from the planner: offered
// its own deployed root, Top-Down always "reuses" it — a plan that reads
// the stream the query already computes, which migrates to a physical
// no-op (the old tree keeps running under the kept-as-leaf root) with
// predicted gain zero. Withholding them forces the planner to state how
// it would compute the query from base streams and OTHER queries'
// materialized intermediates — the comparison that surfaces real
// consolidation and re-placement wins.
func (w *World) ctlReplan(q *query.Query) (*query.PlanNode, error) {
	reg := w.reg.Clone()
	reg.Prune(func(ad ads.Ad) bool { return ad.QueryID != q.ID })
	res, err := core.TopDown(w.h, w.cat, q, reg)
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// onCtlMigrate mirrors a controller migration into the harness
// synchronously: plan table, advertisements, the load ledger (diff-aware
// via the report's LoadDelta), tap rates (operators the migration
// re-created started at catalog rates, which may trail the live truth) and
// the oscillation history.
func (w *World) onCtlMigrate(q *query.Query, old, fresh *query.PlanNode, rep iflow.MigrationReport) {
	w.plans[q.ID] = fresh
	w.reg.AdvertisePlan(q, fresh)
	w.pruneAds()
	w.tracker.ApplyDelta(rep.LoadDelta)
	for _, l := range fresh.Leaves() {
		if l.In.Derived {
			continue
		}
		ids := q.StreamsOf(l.Mask)
		if len(ids) != 1 {
			continue
		}
		if r, ok := w.liveRates[ids[0]]; ok {
			// The tap exists — the plan just deployed it; a failure here
			// would surface as a calibration drift the invariants audit.
			_ = w.rt.SetSourceRate(l.In.Sig, l.Loc, r)
		}
	}
	hist := append(w.planHist[q.ID], fresh.String())
	w.planHist[q.ID] = hist
	if n := len(hist); n >= 3 && hist[n-1] == hist[n-3] && hist[n-1] != hist[n-2] {
		w.oscillations++
	}
}

// nextEvent draws the next schedule entry. Kinds are weighted and gated on
// current state (no failing below the live floor, no arrivals without an
// eligible idle query); parameters are drawn by deterministic scans so the
// schedule is a pure function of the seed.
func (w *World) nextEvent(idx int) Event {
	if w.cfg.Profile == ProfileRateShift {
		return w.nextRateShiftEvent(idx)
	}
	e := Event{Index: idx, Dt: w.rng.ExpFloat64() * w.cfg.MeanStep}
	type choice struct {
		kind   Kind
		weight int
	}
	var choices []choice
	arrivals := w.eligibleArrivals()
	deployed := w.deployedIDs()
	dead := w.deadNodes()
	if len(arrivals) > 0 {
		choices = append(choices, choice{KindQueryArrive, 4})
	}
	if len(deployed) > 0 {
		choices = append(choices, choice{KindQueryUndeploy, 1})
	}
	migratable := w.eligibleMigrations()
	if w.cfg.Migrate && len(migratable) > 0 {
		choices = append(choices, choice{KindQueryMigrate, 3})
	}
	if w.nLive > w.minLive {
		choices = append(choices, choice{KindFailNode, 2})
	}
	if len(dead) > 0 {
		choices = append(choices, choice{KindRecoverNode, 2})
	}
	choices = append(choices, choice{KindLinkCost, 3}, choice{KindRateShift, 2}, choice{KindIdle, 1})
	total := 0
	for _, c := range choices {
		total += c.weight
	}
	pick := w.rng.Intn(total)
	for _, c := range choices {
		if pick < c.weight {
			e.Kind = c.kind
			break
		}
		pick -= c.weight
	}
	switch e.Kind {
	case KindQueryArrive:
		e.Query = arrivals[w.rng.Intn(len(arrivals))]
	case KindQueryUndeploy:
		e.Query = deployed[w.rng.Intn(len(deployed))]
	case KindQueryMigrate:
		e.Query = migratable[w.rng.Intn(len(migratable))]
	case KindFailNode:
		liveNodes := make([]netgraph.NodeID, 0, w.nLive)
		for v, ok := range w.live {
			if ok {
				liveNodes = append(liveNodes, netgraph.NodeID(v))
			}
		}
		e.Node = liveNodes[w.rng.Intn(len(liveNodes))]
	case KindRecoverNode:
		e.Node = dead[w.rng.Intn(len(dead))]
	case KindLinkCost:
		links := w.g.Links()
		l := links[w.rng.Intn(len(links))]
		factor := 0.5 + w.rng.Float64()*1.5
		e.A, e.B = l.A, l.B
		e.Value = clamp(l.Cost*factor, 0.05, 1e6)
	case KindRateShift:
		e.Stream = query.StreamID(w.rng.Intn(w.cat.NumStreams()))
		factor := 0.5 + w.rng.Float64()*1.5
		e.Value = clamp(w.cat.Stream(e.Stream).Rate*factor, 0.5, 200)
	}
	return e
}

// nextRateShiftEvent draws from the adaptive-control mix: live stream-rate
// shifts (weight 5), link-cost bursts (2) and idle time (3). Every
// parameter derives from the schedule rng and harness-owned state
// (liveRates, the graph) — never from anything the controller influences —
// so identical seeds yield identical schedules under every policy mode.
func (w *World) nextRateShiftEvent(idx int) Event {
	e := Event{Index: idx, Dt: w.rng.ExpFloat64() * w.cfg.MeanStep}
	pick := w.rng.Intn(10)
	switch {
	case pick < 5:
		e.Kind = KindRateShift
		e.Stream = query.StreamID(w.rng.Intn(w.cat.NumStreams()))
		// Log-uniform factor in [0.1, 10): shifts are multiplicative and
		// symmetric, so rates wander over two decades instead of creeping.
		factor := math.Pow(10, w.rng.Float64()*2-1)
		e.Value = clamp(w.liveRates[e.Stream]*factor, 0.5, 100)
	case pick < 7:
		e.Kind = KindLinkBurst
		links := w.g.Links()
		n := 2 + w.rng.Intn(3)
		for i := 0; i < n; i++ {
			l := links[w.rng.Intn(len(links))]
			factor := 0.5 + w.rng.Float64()*1.5
			e.Burst = append(e.Burst, iflow.LinkCostUpdate{
				A: l.A, B: l.B, Cost: clamp(l.Cost*factor, 0.05, 1e6),
			})
		}
	default:
		e.Kind = KindIdle
	}
	return e
}

// eligibleArrivals lists idle pool queries whose sources and sink are all
// on live nodes, in pool order.
func (w *World) eligibleArrivals() []int {
	var out []int
	for _, q := range w.pool {
		if w.state[q.ID] != stateIdle || !w.live[q.Sink] {
			continue
		}
		ok := true
		for _, sid := range q.Sources {
			if !w.live[w.cat.Stream(sid).Source] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, q.ID)
		}
	}
	return out
}

// eligibleMigrations lists deployed queries that can be re-planned from
// scratch: all their base sources and their sink on live nodes. A deployed
// query can outlive one of its source nodes when its plan consumes another
// query's derived stream (none of its own operators sat on the dead node);
// such a query keeps running but cannot be re-planned until the source
// recovers, so it is not a migration target.
func (w *World) eligibleMigrations() []int {
	var out []int
	for _, q := range w.pool {
		if w.state[q.ID] != stateDeployed || !w.live[q.Sink] {
			continue
		}
		ok := true
		for _, sid := range q.Sources {
			if !w.live[w.cat.Stream(sid).Source] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, q.ID)
		}
	}
	return out
}

func (w *World) deployedIDs() []int {
	var out []int
	for _, q := range w.pool {
		if w.state[q.ID] == stateDeployed {
			out = append(out, q.ID)
		}
	}
	return out
}

func (w *World) deadNodes() []netgraph.NodeID {
	var out []netgraph.NodeID
	for v, ok := range w.live {
		if !ok {
			out = append(out, netgraph.NodeID(v))
		}
	}
	return out
}

// apply advances virtual time by the event's Dt, then performs the
// perturbation. Errors are invariant violations: every event is chosen to
// be legal, so the stack rejecting or mishandling it is a finding.
func (w *World) apply(e *Event) error {
	w.counts[e.Kind]++
	w.rt.RunFor(e.Dt)
	switch e.Kind {
	case KindIdle:
		return nil
	case KindFailNode:
		return w.applyFail(e)
	case KindRecoverNode:
		w.live[e.Node] = true
		w.nLive++
		if err := w.h.AddNode(e.Node); err != nil {
			return fmt.Errorf("hierarchy rejected rejoin: %w", err)
		}
		return nil
	case KindLinkCost:
		if err := w.rt.UpdateLinkCost(e.A, e.B, e.Value); err != nil {
			return fmt.Errorf("link update rejected: %w", err)
		}
		return w.refreshPathsAndRebind()
	case KindQueryArrive:
		return w.applyArrive(e)
	case KindQueryUndeploy:
		q := w.qByID[e.Query]
		if err := w.rt.Undeploy(q.ID); err != nil {
			return fmt.Errorf("undeploy rejected: %w", err)
		}
		w.tracker.RemovePlan(w.plans[q.ID])
		w.state[q.ID] = stateIdle
		delete(w.plans, q.ID)
		delete(w.prevSinks, q.ID)
		w.pruneAds()
		return nil
	case KindRateShift:
		if w.cfg.Profile == ProfileRateShift {
			return w.applyLiveRateShift(e)
		}
		w.cat.SetRate(e.Stream, e.Value)
		return nil
	case KindQueryMigrate:
		return w.applyMigrate(e)
	case KindLinkBurst:
		if err := w.rt.UpdateLinkCosts(e.Burst); err != nil {
			return fmt.Errorf("link burst rejected: %w", err)
		}
		return w.refreshPathsAndRebind()
	}
	return fmt.Errorf("unknown event kind %d", e.Kind)
}

// refreshPathsAndRebind brings the harness's cost snapshot up to date
// after link churn and rebinds the hierarchy to it. The refresh is
// incremental where the graph's delta log permits, recycling the retired
// snapshot's slabs, and the rebind re-audits only clusters whose members'
// rows the refresh recomputed. If every mutation was a no-op (costs set
// to their current values), nothing moved and nothing is touched.
func (w *World) refreshPathsAndRebind() error {
	old := w.paths
	next, stats := w.paths.RefreshFrom(w.g, w.pathsSpare)
	if next == old {
		return nil
	}
	w.paths = next
	if err := w.h.RebindRows(next, stats.Rows); err != nil {
		return fmt.Errorf("hierarchy rejected fresh paths: %w", err)
	}
	w.pathsSpare = old
	return nil
}

// applyLiveRateShift retunes the live taps covering a stream without
// touching the catalog: the planning model may only learn the new rate
// through the controller's windowed calibration — the closed loop under
// test. Taps are deduplicated (queries share them) and recorded in the
// trace note.
func (w *World) applyLiveRateShift(e *Event) error {
	w.liveRates[e.Stream] = e.Value
	seen := map[string]bool{}
	taps := 0
	for _, qid := range w.deployedIDs() {
		q := w.qByID[qid]
		for _, l := range w.plans[qid].Leaves() {
			if l.In.Derived {
				continue
			}
			ids := q.StreamsOf(l.Mask)
			if len(ids) != 1 || ids[0] != e.Stream {
				continue
			}
			key := fmt.Sprintf("%s@%d", l.In.Sig, l.Loc)
			if seen[key] {
				continue
			}
			seen[key] = true
			if err := w.rt.SetSourceRate(l.In.Sig, l.Loc, e.Value); err != nil {
				return fmt.Errorf("live rate shift rejected: %w", err)
			}
			taps++
		}
	}
	e.Note = fmt.Sprintf("taps=%d", taps)
	return nil
}

func (w *World) applyFail(e *Event) error {
	affected := w.rt.FailNode(e.Node)
	if err := w.h.RemoveNode(e.Node); err != nil {
		return fmt.Errorf("hierarchy rejected removal: %w", err)
	}
	w.live[e.Node] = false
	w.nLive--
	w.pruneAds()
	if len(affected) == 0 {
		e.Note = "affected=none"
		return nil
	}
	// Snapshot the affected queries' booked plans: RecoverQueries rewrites
	// w.plans in place, and the ledger must release exactly what was
	// booked, not the recovered replacement.
	oldPlans := make(map[int]*query.PlanNode, len(affected))
	for _, qid := range affected {
		oldPlans[qid] = w.plans[qid]
	}
	recovered, failed, err := w.rt.RecoverQueries(affected, w.qByID, w.plans, w.cat, w.replan, w.horizon)
	if err != nil {
		return fmt.Errorf("recovery aborted: %w", err)
	}
	for _, qid := range failed {
		w.tracker.RemovePlan(oldPlans[qid])
		w.state[qid] = stateIdle
		delete(w.plans, qid)
		delete(w.prevSinks, qid)
	}
	for _, qid := range recovered {
		w.tracker.RemovePlan(oldPlans[qid])
		w.tracker.AddPlan(w.plans[qid])
		w.reg.AdvertisePlan(w.qByID[qid], w.plans[qid])
	}
	w.pruneAds()
	e.Note = fmt.Sprintf("affected=%s recovered=%s failed=%s",
		intList(affected), intList(recovered), intList(failed))
	return nil
}

func (w *World) applyArrive(e *Event) error {
	q := w.qByID[e.Query]
	res, algo, err := w.planQuery(q)
	e.Algo = algo
	if err != nil {
		return fmt.Errorf("planner rejected eligible query %d: %w", q.ID, err)
	}
	if err := w.rt.Deploy(q, res.Plan, w.cat, w.horizon); err != nil {
		return fmt.Errorf("runtime rejected plan %s: %w", res.Plan, err)
	}
	w.reg.AdvertisePlan(q, res.Plan)
	w.plans[q.ID] = res.Plan
	w.state[q.ID] = stateDeployed
	w.prevSinks[q.ID] = sinkBase{} // Deploy resets delivery statistics
	w.tracker.AddPlan(res.Plan)
	return nil
}

// applyMigrate re-plans a deployed query against current conditions and
// applies the fresh plan as a diff-based migration. The query's delivery
// baseline is deliberately NOT reset: Migrate must carry sink statistics
// natively, so the monotonicity invariant now also polices migrations.
func (w *World) applyMigrate(e *Event) error {
	q := w.qByID[e.Query]
	res, algo, err := w.planQuery(q)
	e.Algo = algo
	if err != nil {
		return fmt.Errorf("planner rejected deployed query %d: %w", q.ID, err)
	}
	rep, err := w.rt.Migrate(q, res.Plan, w.cat, w.horizon)
	if err != nil {
		return fmt.Errorf("migration rejected plan %s: %w", res.Plan, err)
	}
	w.tracker.ApplyDelta(rep.LoadDelta)
	w.plans[q.ID] = res.Plan
	w.reg.AdvertisePlan(q, res.Plan)
	w.pruneAds()
	e.Note = fmt.Sprintf("kept=%d created=%d retired=%d moved=%d rewired=%d",
		rep.Kept, rep.Created, rep.Retired, rep.Moved, rep.Rewired)
	return nil
}

// planQuery runs one of the paper's hierarchy planners, chosen by the
// schedule rng, against current conditions and advertisements.
func (w *World) planQuery(q *query.Query) (core.Result, string, error) {
	return w.planQueryWith(q, w.reg)
}

// planQueryWith plans against an explicit registry, consuming the schedule
// rng exactly like planQuery — callers that must not see advertisements
// (the rate-shift profile's independent arrivals) pass an empty one.
func (w *World) planQueryWith(q *query.Query, reg *ads.Registry) (core.Result, string, error) {
	if w.rng.Intn(2) == 0 {
		res, err := core.TopDown(w.h, w.cat, q, reg)
		return res, "top-down", err
	}
	res, err := core.BottomUp(w.h, w.cat, q, reg)
	return res, "bottom-up", err
}

// replan is the middleware's re-planning hook for RecoverQueries: it
// retracts advertisements orphaned by the teardown that precedes each
// re-plan, refuses queries whose sources or sink are dead, and otherwise
// plans against the surviving network.
func (w *World) replan(q *query.Query) (*query.PlanNode, error) {
	w.pruneAds()
	if !w.live[q.Sink] {
		return nil, fmt.Errorf("sink node %d is down", q.Sink)
	}
	for _, sid := range q.Sources {
		if src := w.cat.Stream(sid).Source; !w.live[src] {
			return nil, fmt.Errorf("source node %d of stream %d is down", src, sid)
		}
	}
	res, _, err := w.planQuery(q)
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// pruneAds retracts every advertisement whose operator the runtime no
// longer hosts, so planners are never offered streams that stopped
// existing.
func (w *World) pruneAds() {
	w.reg.Prune(func(ad ads.Ad) bool {
		return w.rt.Operator(ad.Sig, ad.Node) != nil
	})
}

func intList(xs []int) string {
	if len(xs) == 0 {
		return "none"
	}
	parts := make([]string, len(xs))
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	for i, x := range sorted {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ",")
}

func clamp(v, lo, hi float64) float64 {
	return min(max(v, lo), hi)
}
