// Package chaos is a seed-deterministic fault and churn simulation
// harness for the full optimizer/runtime stack. It composes randomized
// adversarial schedules — node failures and recoveries, link-cost drift,
// query arrival and teardown, stream-rate shifts — against a live
// engine.Engine (netgraph topology, clustering hierarchy, Top-Down/
// Bottom-Up planners, advertisement registry, load ledger, IFLOW runtime
// on the discrete-event clock — the same object the CLIs and examples
// drive) and checks cross-cutting invariants after every event: the
// engine's own audit (hierarchy well-formedness, plan/deployment
// consistency, advertisement liveness, path-snapshot freshness, ledger
// exactness, transport conservation) plus counter monotonicity across the
// run.
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
	"math"
	"math/rand"
	"sort"
	"strings"

	"hnp/internal/adapt"
	"hnp/internal/ads"
	"hnp/internal/engine"
	"hnp/internal/hierarchy"
	"hnp/internal/iflow"
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

// The world every run builds: a 24-node transit-stub network clustered
// under a cap of 6, 8 base streams in the catalog, and a pool of 10
// candidate queries events draw from. The runtime runs at
// iflow.DefaultConfig's physical constants.
const (
	nodes   = 24
	maxCS   = 6
	streams = 8
	queries = 10
)

// Config parameterizes one chaos run. Identical configs (seed included)
// produce identical runs, event for event and tuple for tuple.
type Config struct {
	// Seed drives everything: topology, hierarchy, workload, schedule,
	// and the runtime's tuple randomness.
	Seed int64
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
	// width-bracket transport invariants are exercised. Off by default so
	// existing seeds replay unchanged.
	Schemas bool
	// Profile selects the event mix: "" is the default fault/churn
	// schedule; ProfileRateShift is the adaptive-control stress schedule.
	Profile string
	// Adapt, when non-nil, attaches a closed-loop re-optimization
	// controller (internal/adapt) to the run: every pool query is placed
	// under control (engine.AttachController). Only meaningful with
	// ProfileRateShift.
	Adapt *adapt.Config
}

// DefaultConfig returns the standard chaos shape: 200 events at ~0.4
// virtual seconds apart.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Events: 200, MeanStep: 0.4}
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

// World is one chaos run in progress: the engine under test plus what is
// chaos — the schedule, the ground truth the schedule draws from, and the
// baselines the run-long invariants are checked against. Everything the
// stack itself must keep consistent (plans, advertisements, load ledger,
// path snapshots, node liveness) lives in the engine and is audited there.
type World struct {
	cfg Config
	rng *rand.Rand // event schedule + parameter draws
	eng *engine.Engine
	// pool is the candidate queries events draw from; pool[i].ID == i
	// (workload.Generate numbers queries by position).
	pool []*query.Query
	// minLive is the liveness floor: the schedule never fails a node when
	// that would leave fewer live ones.
	minLive int

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

	trace  []Event
	counts [9]int
	// prev and prevSinks are the baselines counter monotonicity is checked
	// against: global transport statistics, and per deployed query its
	// delivery statistics as of the previous audit.
	prev      iflow.Stats
	prevSinks map[int]iflow.SinkStats

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

// Summary renders the run's outcome on one line, the way cmd/chaos prints
// it and TestChaosPins pins it: per-kind event counts in kind-name order,
// then the transport totals.
func (r Report) Summary() string {
	kinds := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&b, "%s=%d ", k, r.Counts[k])
	}
	fmt.Fprintf(&b, "transferred=%d delivered=%d dropped=%d deployed=%d cost=%.1f",
		r.Stats.TuplesTransferred, r.Delivered, r.Stats.TuplesDropped, r.Deployed, r.Stats.TotalCost)
	return b.String()
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
// containment reuse is exercised under churn) and an engine over them,
// all seeded from cfg.Seed.
func New(cfg Config) (*World, error) { return newWorld(cfg, true) }

// newWorld is New with the schema-mode column pruning of predicate queries
// made optional: prune=false builds the same world at full tuple widths,
// the reference side of the package's pushdown comparisons.
func newWorld(cfg Config, prune bool) (*World, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	buildRng := rand.New(rand.NewSource(cfg.Seed))
	g := netgraph.MustTransitStub(nodes, buildRng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	h, err := hierarchy.Build(g, paths, maxCS, buildRng)
	if err != nil {
		return nil, err
	}
	wlRng := rand.New(rand.NewSource(cfg.Seed ^ 0x77f00d))
	wl, err := workload.Generate(workload.Default(streams, queries), nodes, wlRng)
	if err != nil {
		return nil, err
	}
	// The run's flight recorder is always armed: every causal trace event
	// the stack emits (plans, deploys, calibration windows, gate
	// decisions, migrations, invariant audits) lands in the engine
	// registry's ring buffer, so a violation's report can be accompanied
	// by the decision history that led to it. Metric collection stays
	// gated on obs.Enabled; only the tracer is armed unconditionally.
	reg := obs.NewRegistry()
	reg.Tracer().Enable()
	h.BindObs(reg)
	w := &World{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed ^ 0x5eed5)),
		eng: engine.NewEngine(engine.NewSystem(g, h, wl.Catalog, reg),
			iflow.DefaultConfig(), cfg.Seed^0x7f1e, cfg.horizon()),
		minLive:   max(maxCS, nodes/2),
		liveRates: map[query.StreamID]float64{},
		planHist:  map[int][]string{},
		prevSinks: map[int]iflow.SinkStats{},
	}
	for i := 0; i < wl.Catalog.NumStreams(); i++ {
		w.liveRates[query.StreamID(i)] = wl.Catalog.Stream(query.StreamID(i)).Rate
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
	}
	return w, nil
}

// Tracer exposes the run's always-armed flight recorder — the causal
// event history behind a violation, or the raw material for timeline
// reconstruction in tests.
func (w *World) Tracer() *obs.Tracer { return w.eng.Obs.Tracer() }

// FailNextCheck forces the next invariant audit to report the given
// violation. Test hook: it exercises the violation-to-flight-dump path
// without needing a real bug.
func (w *World) FailNextCheck(msg string) { w.forcedErr = msg }

// Run executes the schedule, checking every invariant after every event,
// then quiesces the simulation (sources end, in-flight tuples drain) and
// performs a final audit including the zero-in-flight conservation check.
// The returned report always carries the trace, violation or not.
func (w *World) Run() (Report, error) {
	rt := w.eng.RT
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
	if now, end := rt.Sim.Now(), w.cfg.horizon(); now < end {
		rt.RunFor(end - now)
	}
	rt.Sim.Run()
	if err := w.check(); err != nil {
		return w.report(), fmt.Errorf("chaos: seed %d, after quiesce: %w", w.cfg.Seed, err)
	}
	if inFlight := rt.InFlight(); inFlight != 0 {
		return w.report(), fmt.Errorf("chaos: seed %d: %d tuples unaccounted for after quiesce (sent %d)",
			w.cfg.Seed, inFlight, rt.TuplesSent)
	}
	return w.report(), nil
}

func (w *World) report() Report {
	var delivered int64
	for _, q := range w.pool {
		if s := w.eng.RT.Sink(q.ID); s != nil {
			delivered += s.Tuples
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
		Deployed:     len(w.eng.RT.DeployedQueries()),
		Delivered:    delivered,
		Stats:        w.eng.RT.Stats(),
		Oscillations: w.oscillations,
		Trace:        w.trace,
		Flight:       w.Tracer().Snapshot(),
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
// Each pool query is planned with NO advertisements on offer — every
// deployment stands alone, as if the queries arrived before any
// cross-query optimization ran. The default profile already exercises
// reuse-dense arrival ordering; this profile isolates the re-optimization
// loop, which must discover both kinds of improvement at run time:
// consolidating duplicated work onto advertised intermediates, and
// re-placing operators as the live rates drift. The engine advertises
// every plan as it deploys, so controller re-plans see the full reuse
// surface.
func (w *World) startRateShift() error {
	for _, q := range w.pool {
		d, _, err := w.planQuery(q, nil)
		if err != nil {
			return fmt.Errorf("planner rejected pool query %d: %w", q.ID, err)
		}
		if err := w.eng.Deploy(d); err != nil {
			return fmt.Errorf("runtime rejected plan %s: %w", d.Plan, err)
		}
		w.prevSinks[q.ID] = iflow.SinkStats{}
		w.planHist[q.ID] = []string{d.Plan.String()}
	}
	if w.cfg.Adapt != nil {
		w.eng.OnMigrate = w.onCtlMigrate
		w.ctl = w.eng.AttachController(*w.cfg.Adapt)
	}
	return nil
}

// onCtlMigrate follows a controller migration the engine has already
// mirrored with what only the harness knows: tap rates (operators the
// migration re-created started at catalog rates, which may trail the live
// truth) and the oscillation history. The controller's re-planner never
// consumes the schedule rng, so its decisions cannot perturb the event
// sequence and cross-policy runs on a shared seed stay comparable.
func (w *World) onCtlMigrate(q *query.Query, old, fresh *query.PlanNode, rep iflow.MigrationReport) {
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
			_ = w.eng.RT.SetSourceRate(l.In.Sig, l.Loc, r)
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
	cat := w.eng.Catalog
	arrivals := w.plannable(false)
	deployed := w.eng.RT.DeployedQueries()
	var liveNodes, dead []netgraph.NodeID
	for v := netgraph.NodeID(0); int(v) < nodes; v++ {
		if w.eng.Live(v) {
			liveNodes = append(liveNodes, v)
		} else {
			dead = append(dead, v)
		}
	}
	if len(arrivals) > 0 {
		choices = append(choices, choice{KindQueryArrive, 4})
	}
	if len(deployed) > 0 {
		choices = append(choices, choice{KindQueryUndeploy, 1})
	}
	migratable := w.plannable(true)
	if w.cfg.Migrate && len(migratable) > 0 {
		choices = append(choices, choice{KindQueryMigrate, 3})
	}
	if len(liveNodes) > w.minLive {
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
		e.Node = liveNodes[w.rng.Intn(len(liveNodes))]
	case KindRecoverNode:
		e.Node = dead[w.rng.Intn(len(dead))]
	case KindLinkCost:
		links := w.eng.Graph.Links()
		l := links[w.rng.Intn(len(links))]
		factor := 0.5 + w.rng.Float64()*1.5
		e.A, e.B = l.A, l.B
		e.Value = clamp(l.Cost*factor, 0.05, 1e6)
	case KindRateShift:
		e.Stream = query.StreamID(w.rng.Intn(cat.NumStreams()))
		factor := 0.5 + w.rng.Float64()*1.5
		e.Value = clamp(cat.Stream(e.Stream).Rate*factor, 0.5, 200)
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
		e.Stream = query.StreamID(w.rng.Intn(w.eng.Catalog.NumStreams()))
		// Log-uniform factor in [0.1, 10): shifts are multiplicative and
		// symmetric, so rates wander over two decades instead of creeping.
		factor := math.Pow(10, w.rng.Float64()*2-1)
		e.Value = clamp(w.liveRates[e.Stream]*factor, 0.5, 100)
	case pick < 7:
		e.Kind = KindLinkBurst
		links := w.eng.Graph.Links()
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

// plannable lists, in pool order, the idle (or deployed) pool queries whose
// base sources and sink are all on live nodes. Idle ones may arrive;
// deployed ones may be re-planned from scratch: a deployed query can
// outlive one of its source nodes when its plan consumes another query's
// derived stream (none of its own operators sat on the dead node) — it
// keeps running but is not a migration target until the source recovers.
func (w *World) plannable(deployed bool) []int {
	var out []int
	for _, q := range w.pool {
		if (w.eng.RT.DeployedPlan(q.ID) != nil) == deployed && w.eng.Down(q) == nil {
			out = append(out, q.ID)
		}
	}
	return out
}

// apply advances virtual time by the event's Dt, then performs the
// perturbation through the engine. Errors are invariant violations: every
// event is chosen to be legal, so the stack rejecting or mishandling it is
// a finding.
func (w *World) apply(e *Event) error {
	w.counts[e.Kind]++
	w.eng.RT.RunFor(e.Dt)
	switch e.Kind {
	case KindIdle:
		return nil
	case KindFailNode:
		rec, err := w.eng.FailNode(e.Node, func(q *query.Query) (*query.PlanNode, error) {
			d, _, err := w.planQuery(q, w.eng.Registry)
			return d.Plan, err
		})
		if err != nil {
			return err
		}
		for _, qid := range rec.Failed {
			delete(w.prevSinks, qid)
		}
		e.Note = "affected=none"
		if len(rec.Affected) > 0 {
			e.Note = fmt.Sprintf("affected=%s recovered=%s failed=%s",
				intList(rec.Affected), intList(rec.Recovered), intList(rec.Failed))
		}
		return nil
	case KindRecoverNode:
		return w.eng.RecoverNode(e.Node)
	case KindLinkCost:
		if err := w.eng.UpdateLinkCosts(iflow.LinkCostUpdate{A: e.A, B: e.B, Cost: e.Value}); err != nil {
			return fmt.Errorf("link update rejected: %w", err)
		}
		return nil
	case KindQueryArrive:
		d, algo, err := w.planQuery(w.pool[e.Query], w.eng.Registry)
		e.Algo = algo
		if err != nil {
			return fmt.Errorf("planner rejected eligible query %d: %w", e.Query, err)
		}
		if err := w.eng.Deploy(d); err != nil {
			return fmt.Errorf("runtime rejected plan %s: %w", d.Plan, err)
		}
		w.prevSinks[e.Query] = iflow.SinkStats{} // Deploy resets delivery statistics
		return nil
	case KindQueryUndeploy:
		if w.eng.RT.DeployedPlan(e.Query) == nil { // Undeploy would pass it as a no-op
			return fmt.Errorf("undeploy rejected: query %d not deployed", e.Query)
		}
		if _, err := w.eng.Undeploy(engine.Deployment{Query: w.pool[e.Query]}); err != nil {
			return fmt.Errorf("undeploy rejected: %w", err)
		}
		delete(w.prevSinks, e.Query)
		return nil
	case KindRateShift:
		if w.cfg.Profile != ProfileRateShift {
			w.eng.Catalog.SetRate(e.Stream, e.Value)
			return nil
		}
		// Rate-shift profile: only the live taps move; the planning model
		// may learn the new rate only through the controller's windowed
		// calibration — the closed loop under test.
		w.liveRates[e.Stream] = e.Value
		taps, err := w.eng.SetLiveRate(e.Stream, e.Value)
		if err != nil {
			return fmt.Errorf("live rate shift rejected: %w", err)
		}
		e.Note = fmt.Sprintf("taps=%d", taps)
		return nil
	case KindQueryMigrate:
		// The query's delivery baseline is deliberately NOT reset: Migrate
		// must carry sink statistics natively, so the monotonicity
		// invariant also polices migrations.
		d, algo, err := w.planQuery(w.pool[e.Query], w.eng.Registry)
		e.Algo = algo
		if err != nil {
			return fmt.Errorf("planner rejected deployed query %d: %w", e.Query, err)
		}
		rep, err := w.eng.Migrate(e.Query, d.Plan)
		if err != nil {
			return fmt.Errorf("migration rejected plan %s: %w", d.Plan, err)
		}
		e.Note = fmt.Sprintf("kept=%d created=%d retired=%d moved=%d rewired=%d",
			rep.Kept, rep.Created, rep.Retired, rep.Moved, rep.Rewired)
		return nil
	case KindLinkBurst:
		if err := w.eng.UpdateLinkCosts(e.Burst...); err != nil {
			return fmt.Errorf("link burst rejected: %w", err)
		}
		return nil
	}
	return fmt.Errorf("unknown event kind %d", e.Kind)
}

// planQuery runs one of the paper's hierarchy planners, chosen by the
// schedule rng, against current conditions and the advertisements in reg:
// the engine's registry, or nil for callers that must not see any (the
// rate-shift profile's independent arrivals).
func (w *World) planQuery(q *query.Query, reg *ads.Registry) (engine.Deployment, string, error) {
	algo := engine.AlgoBottomUp
	if w.rng.Intn(2) == 0 {
		algo = engine.AlgoTopDown
	}
	res, err := w.eng.PlanQuery(q, algo, reg)
	return engine.Deployment{Query: q, Result: res}, algo.String(), err
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
