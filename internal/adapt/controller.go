// Package adapt closes the paper's re-optimization loop: "changes in
// stream rates ... may render the deployed network sub-optimal, and the
// middleware layer may decide to re-optimize". A Controller watches each
// deployed query's observed stream rates against the catalog the planner
// assumed, recalibrates the catalog from windowed runtime measurements,
// re-costs the running plan under the calibrated statistics, and triggers
// the runtime's incremental Migrate only when the predicted savings beat
// a churn-cost hysteresis derived from the measured cost of migrating.
//
// The decision chain per query and control interval:
//
//	drift gate      — skip quiescent queries: no stream drifted past
//	                  DriftThreshold, the network graph is unchanged, and
//	                  no suppressed candidate is pending. (Calibration
//	                  erases drift — once the catalog tracks the observed
//	                  rates a stale plan stops drifting without getting
//	                  fixed, so a candidate the later gates suppressed
//	                  stays hot until it either migrates or stops paying.)
//	re-cost         — both the running plan and a fresh optimization are
//	                  evaluated under the same calibrated rate table by
//	                  transport byte rate (bytesWith, bytes crossing links
//	                  per second — the metric migrations are judged by,
//	                  since shipped state is paid in bytes too).
//	deadband        — relative byte gains below minRelGain are noise.
//	hysteresis      — predicted byte savings over horizon seconds must
//	                  exceed hysteresis × (ops churned × per-op shipped
//	                  bytes); the per-op estimate is an EWMA of
//	                  BytesShipped/Delta over this controller's own
//	                  migrations, floored at the perOpShipBytes seed.
//	cooldown        — at most one migration per query per cooldown.
//	revert holdoff  — a plan we just migrated away from cannot return
//	                  within revertHoldoff: A→B→A flapping is structurally
//	                  impossible inside the holdoff window. A return after
//	                  it is a flip, and Stats.Oscillations counts it.
//
// The Never and Always modes keep every measurement and re-planning step
// (equal overhead, equal rng consumption) but pin the migration decision
// to "never" / "whenever the fresh plan differs" — the two baselines the
// controller is validated against in the chaos harness.
package adapt

import (
	"math"

	"hnp/internal/iflow"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
)

// Mode selects the migration policy; measurement and re-planning are
// identical across modes so baseline comparisons isolate the decision.
type Mode int

const (
	// ModeController applies the full gate chain (the real policy).
	ModeController Mode = iota
	// ModeNever measures and re-plans but never migrates.
	ModeNever
	// ModeAlways migrates whenever the fresh plan differs from the
	// running one, with no gates — the churn-blind baseline.
	ModeAlways
)

// The gate chain's fixed tuning.
const (
	// minRelGain is the deadband: predicted relative byte gains at or
	// below it never trigger a migration.
	minRelGain = 0.05
	// hysteresis scales the churn cost a predicted gain must beat.
	hysteresis = 1.5
	// horizon is the payback window in virtual seconds: savings accrue as
	// gain × horizon when weighed against one-time migration cost.
	horizon = 60.0
	// cooldown is the minimum spacing in virtual seconds between
	// migrations of one query.
	cooldown = 20.0
	// revertHoldoff is how long in virtual seconds a query's previous
	// plan stays banned after migrating away from it.
	revertHoldoff = 120.0
	// perOpShipBytes seeds (and floors) the measured per-operator
	// migration churn EWMA, in bytes shipped per churned operator. A
	// moved join ships its buffered windows (≈ input rate × window ×
	// tuple size), so the seed only matters until the first real
	// migration is measured.
	perOpShipBytes = 2000.0
)

// Config tunes the controller; zero values are replaced by
// DefaultConfig's in New.
type Config struct {
	// Interval is the control period in virtual seconds.
	Interval float64
	// DriftThreshold is the relative observed-vs-assumed rate drift above
	// which a query is re-planned (drift gate).
	DriftThreshold float64
	// Mode selects the migration policy.
	Mode Mode
}

// DefaultConfig returns the tuning used by cmd/smq and the chaos harness.
func DefaultConfig() Config {
	return Config{Interval: 10, DriftThreshold: 0.2, Mode: ModeController}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Interval <= 0 {
		c.Interval = d.Interval
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = d.DriftThreshold
	}
	return c
}

// Stats counts what the controller did, with per-gate suppression
// attribution so a run's decisions can be audited.
type Stats struct {
	Checks     int
	Replans    int
	Migrations int
	// Suppressed* count candidate migrations each gate stopped.
	SuppressedDeadband   int
	SuppressedHysteresis int
	SuppressedCooldown   int
	SuppressedRevert     int
	// Oscillations counts A→B→A flips: migrations back to the plan a
	// query last left (the revert gate bans them within its holdoff).
	Oscillations int
	// PredictedSavings accumulates the predicted byte-rate gain at
	// decision time for every triggered migration; RealizedSavings the
	// measured drop in the window byte rate from the window before a
	// migration step to the one after it (approximate: other activity in
	// the windows is attributed too). Both are in bytes/s.
	PredictedSavings float64
	RealizedSavings  float64
}

// Suppressed returns the total candidate migrations the gates stopped.
func (s Stats) Suppressed() int {
	return s.SuppressedDeadband + s.SuppressedHysteresis + s.SuppressedCooldown + s.SuppressedRevert
}

// policy is what the controller remembers of one query between steps;
// the query and the plan it runs are the runtime's, read afresh each step.
type policy struct {
	lastMigrate float64
	prevSig     string // rendering of the plan last migrated away from
	// pending marks a candidate a gate suppressed while a real gain was
	// on the table: it keeps the query past the drift gate on later steps
	// even after calibration has erased its apparent drift.
	pending bool
}

// reading is one deployed query's measurement in a step: its drift over
// the window and the calibration event its decision chain hangs from (0
// when the recorder is disarmed).
type reading struct {
	drift float64
	meas  uint64
}

// Controller is the closed-loop re-optimization policy over one runtime.
// It controls every query the runtime runs, walked in ID order, and keeps
// only per-query policy of its own. It is driven either by Run
// (self-scheduling on the runtime's virtual clock) or by explicit Step
// calls from a harness.
type Controller struct {
	rt     *iflow.Runtime
	cat    *query.Catalog
	cfg    Config
	replan ReplanFunc

	// Commit applies a migration the gates passed and reports what it
	// churned (Engine.AttachController sets it to Engine.Migrate, then
	// Engine.OnMigrate). A controller whose Commit is nil never migrates.
	Commit func(qid int, plan *query.PlanNode) (iflow.MigrationReport, error)

	policy map[int]policy // by query ID; an entry lives while its query runs
	win    *iflow.StatsWindow

	perOpBytes  float64 // EWMA of measured BytesShipped/Delta, floored at perOpShipBytes
	lastVersion int     // graph version at the previous step

	migratedLastStep bool
	preRate          float64 // window byte rate before the last migration step
	lastWindowBytes  float64 // TotalBytes at the last window roll

	stats Stats

	obsChecks     *obs.Counter
	obsReplans    *obs.Counter
	obsTriggered  *obs.Counter
	obsSuppressed *obs.Counter
	obsDrift      *obs.Gauge
	obsPredicted  *obs.Gauge
	obsRealized   *obs.Gauge

	// tr is the flight recorder shared with the binding registry; every
	// calibration window and gate decision is emitted there, causally
	// chained measurement → gates → migration.
	tr *obs.Tracer
}

// ReplanFunc produces a fresh plan for a query against current conditions
// (the controller and the engine's failure recovery both take one).
type ReplanFunc func(q *query.Query) (*query.PlanNode, error)

// New builds a controller over a runtime. replan produces a fresh plan
// for a query against the current (calibrated) catalog; it must be
// deterministic for reproducible runs.
func New(rt *iflow.Runtime, cat *query.Catalog, replan ReplanFunc, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{
		rt:          rt,
		cat:         cat,
		cfg:         cfg,
		replan:      replan,
		policy:      map[int]policy{},
		win:         rt.NewStatsWindow(),
		perOpBytes:  perOpShipBytes,
		lastVersion: rt.G.Version(),
	}
}

// BindObs connects the controller to a telemetry registry: control
// activity ("adapt.checks", "adapt.replans" counters), decisions
// ("adapt.migrations_triggered", "adapt.migrations_suppressed"), the
// maximum observed rate drift ("adapt.drift" gauge) and the savings
// ledger ("adapt.predicted_savings", "adapt.realized_savings" gauges).
func (c *Controller) BindObs(reg *obs.Registry) {
	c.obsChecks = reg.Counter("adapt.checks")
	c.obsReplans = reg.Counter("adapt.replans")
	c.obsTriggered = reg.Counter("adapt.migrations_triggered")
	c.obsSuppressed = reg.Counter("adapt.migrations_suppressed")
	c.obsDrift = reg.Gauge("adapt.drift")
	c.obsPredicted = reg.Gauge("adapt.predicted_savings")
	c.obsRealized = reg.Gauge("adapt.realized_savings")
	c.tr = reg.Tracer()
}

// Track is a no-op, like SetPlan: the controller reads the deployed queries
// and their plans from the runtime. Both are kept for bench/adaptive.go,
// which changes only with the benchmark.
func (c *Controller) Track(*query.Query, *query.PlanNode) {}

// SetPlan is a no-op; see Track.
func (c *Controller) SetPlan(int, *query.PlanNode) {}

// Stats returns a copy of the decision counters.
func (c *Controller) Stats() Stats { return c.stats }

// Run installs the control loop on the runtime's virtual clock: one Step
// every Interval until the horizon.
func (c *Controller) Run(until float64) {
	var tick func()
	tick = func() {
		if c.rt.Sim.Now() >= until {
			return
		}
		c.Step()
		c.rt.Sim.Schedule(c.cfg.Interval, tick)
	}
	c.rt.Sim.Schedule(c.cfg.Interval, tick)
}

// Step runs one control interval: settle realized savings, measure every
// deployed query's drift over the window (all of them, before any
// calibration — calibrating a shared stream for the first query would
// erase later queries' apparent drift), recalibrate the catalog, then
// walk candidates through the gate chain. The window rolls at the end so
// the next step measures a fresh interval.
func (c *Controller) Step() {
	now := c.rt.Sim.Now()
	elapsed := now - c.win.Start()
	if elapsed <= 0 {
		return
	}

	// Realized savings: the byte-rate change from the window preceding
	// the migrations to the window after them.
	curRate := (c.rt.TotalBytes - c.lastWindowBytes) / elapsed
	if c.migratedLastStep {
		c.stats.RealizedSavings += c.preRate - curRate
		c.obsRealized.Set(c.stats.RealizedSavings)
		c.migratedLastStep = false
	}
	defer func() {
		c.lastWindowBytes = c.rt.TotalBytes
		c.win.Roll(c.rt)
	}()

	ids := c.rt.DeployedQueries()
	reads := make([]reading, len(ids)) // by position in ids
	maxDrift := 0.0
	for i, qid := range ids {
		d := c.drift(c.rt.DeployedQuery(qid), c.rt.DeployedPlan(qid))
		reads[i].drift = d
		if d > maxDrift {
			maxDrift = d
		}
	}
	c.obsDrift.Set(maxDrift)

	traceOn := c.tr.On()
	for i, qid := range ids {
		updated := c.rt.Calibrate(c.cat, c.rt.DeployedQuery(qid), c.rt.DeployedPlan(qid), c.win)
		if traceOn {
			// The measurement is the root of this query's decision chain
			// for the interval: drift observed over the window and the
			// number of catalog statistics recalibrated from it.
			reads[i].meas = c.tr.Emit(obs.Event{
				Kind: obs.KindCalibrationWindow, Trace: obs.QueryTrace(qid),
				Query: qid, Node: obs.NoID, VTime: now,
				Value: reads[i].drift, Aux: float64(updated),
			})
		}
	}

	graphChanged := c.rt.G.Version() != c.lastVersion
	c.lastVersion = c.rt.G.Version()

	migrated := false
	for i, qid := range ids {
		q, plan, p := c.rt.DeployedQuery(qid), c.rt.DeployedPlan(qid), c.policy[qid]
		drift, chain := reads[i].drift, reads[i].meas
		c.stats.Checks++
		c.obsChecks.Inc()
		if c.cfg.Mode != ModeAlways && drift < c.cfg.DriftThreshold &&
			!graphChanged && !p.pending {
			c.emitGate(&chain, qid, now, "drift", false, drift, c.cfg.DriftThreshold)
			continue
		}
		c.emitGate(&chain, qid, now, "drift", true, drift, c.cfg.DriftThreshold)

		rates := query.BuildRates(c.cat, q)
		fresh, err := c.replan(q)
		if err != nil {
			continue
		}
		c.stats.Replans++
		c.obsReplans.Inc()

		oldIR, newIR := q.IR(plan), q.IR(fresh)
		diff := query.DiffIR(oldIR, newIR)
		if diff.Delta() == 0 {
			c.mark(qid, false)
			c.emitGate(&chain, qid, now, "delta", false, 0, 0)
			continue // the fresh plan is the running plan
		}
		// The decision is byte-denominated end to end: migrations are
		// judged (and validated) on total bytes moved, and their churn is
		// paid in shipped bytes, so predicted transport byte rates are
		// the commensurable currency. The gain is marginal, not a
		// whole-plan comparison: edges shared with other deployments keep
		// flowing after this query leaves them, so only edges the
		// migration actually starts or stops count: the gain here is what
		// the runtime's TotalBytes will actually see.
		rateOf := c.rateOf(q, rates)
		curBytes := bytesWith(plan, rateOf, q.Sink)
		gain := c.marginalGain(q, oldIR, newIR, diff, rateOf)
		if c.cfg.Mode == ModeNever || c.Commit == nil {
			continue
		}
		if c.cfg.Mode == ModeController {
			floor := minRelGain * math.Abs(curBytes)
			if c.gate(&chain, qid, now, "deadband", gain <= floor, gain, floor,
				&c.stats.SuppressedDeadband, false) {
				continue // noise, not a deferred opportunity
			}
			// Price the migration's churn from what it would actually
			// ship: each moved operator's live state, measured now, plus
			// the per-operator overhead EWMA for the rest of the delta.
			// The seed EWMA alone blinds the gate to moves of hot joins
			// whose windows dwarf the per-op constant.
			churn := float64(diff.Delta()) * c.perOpBytes
			if ship := c.predictShipBytes(diff); ship > churn {
				churn = ship
			}
			since := now - p.lastMigrate
			if c.gate(&chain, qid, now, "hysteresis", gain*horizon <= hysteresis*churn,
				gain*horizon, hysteresis*churn, &c.stats.SuppressedHysteresis, true) ||
				c.gate(&chain, qid, now, "cooldown", p.lastMigrate > 0 && since < cooldown,
					since, cooldown, &c.stats.SuppressedCooldown, true) ||
				c.gate(&chain, qid, now, "revert", p.prevSig != "" && fresh.String() == p.prevSig && since < revertHoldoff,
					since, revertHoldoff, &c.stats.SuppressedRevert, true) {
				continue
			}
		}

		// Parent the runtime's MigrationApplied/RolledBack event on the
		// last gate decision, closing the causal chain measurement →
		// gates → migration.
		c.rt.SetTraceParent(chain)
		rep, err := c.Commit(qid, fresh)
		if err != nil {
			continue
		}
		if p.prevSig != "" && fresh.String() == p.prevSig {
			c.stats.Oscillations++ // A→B→A: back to the plan it last left
		}
		c.policy[qid] = policy{lastMigrate: now, prevSig: plan.String()}
		migrated = true
		c.stats.Migrations++
		c.stats.PredictedSavings += gain
		c.obsTriggered.Inc()
		c.obsPredicted.Set(c.stats.PredictedSavings)

		// Learn the measured per-operator migration churn. Pure
		// create/retire migrations ship nothing (BytesShipped 0); folding
		// those into the EWMA would decay the hysteresis to nothing, so
		// the estimate is floored at the configured seed.
		if rep.Delta() > 0 {
			per := rep.BytesShipped / float64(rep.Delta())
			if per < perOpShipBytes {
				per = perOpShipBytes
			}
			c.perOpBytes = 0.7*c.perOpBytes + 0.3*per
		}
	}
	if migrated {
		c.migratedLastStep = true
		c.preRate = curRate
	}
	for qid := range c.policy {
		if c.rt.DeployedQuery(qid) == nil {
			delete(c.policy, qid) // undeployed, or dropped by a failure
		}
	}
}

// mark sets or clears a query's pending candidate; clearing a query with
// no policy entry creates none.
func (c *Controller) mark(qid int, pending bool) {
	if p := c.policy[qid]; p.pending != pending {
		p.pending = pending
		c.policy[qid] = p
	}
}

// gate states one gate that can suppress a migration: it records the
// decision in the flight recorder and, when stop holds, marks the
// candidate (pending when a real gain stays on the table) and counts the
// suppression in counter. It returns stop.
func (c *Controller) gate(chain *uint64, qid int, now float64, name string, stop bool, value, aux float64, counter *int, pending bool) bool {
	if stop {
		c.mark(qid, pending)
		*counter++
		c.obsSuppressed.Inc()
	}
	c.emitGate(chain, qid, now, name, !stop, value, aux)
	return stop
}

// emitGate records one gate decision in the flight recorder, chained on
// the previous event of the query's decision chain, and advances the
// chain to the new event. A disarmed recorder costs one atomic load and
// leaves the chain untouched.
func (c *Controller) emitGate(chain *uint64, qid int, now float64, gate string, pass bool, value, aux float64) {
	if !c.tr.On() {
		return
	}
	*chain = c.tr.Emit(obs.Event{
		Kind: obs.KindGateDecision, Parent: *chain, Trace: obs.QueryTrace(qid),
		Query: qid, Node: obs.NoID, VTime: now,
		Gate: gate, Pass: pass, Value: value, Aux: aux,
	})
}

// drift returns the worst relative observed-vs-assumed rate drift across
// a query's base streams over the current window. Streams with no
// observations in the window (sources quiesced) report no drift.
func (c *Controller) drift(q *query.Query, plan *query.PlanNode) float64 {
	max := 0.0
	for _, leaf := range plan.Leaves() {
		id, ok := q.BaseStream(leaf.Mask)
		if leaf.In.Derived || !ok {
			continue
		}
		assumed := c.cat.Stream(id).Rate
		if assumed <= 0 {
			continue
		}
		observed := c.rt.WindowedRate(c.win, leaf.In.Sig, leaf.Loc)
		if observed <= 0 {
			continue
		}
		if d := math.Abs(observed-assumed) / assumed; d > max {
			max = d
		}
	}
	return max
}

// bytesWith predicts a placed plan's transport byte rate under a per-node
// rate estimate: bytes crossing links per second. Unlike plan cost it
// ignores distance — the runtime accounts TotalBytes once per remote
// transfer, so only whether an edge crosses nodes matters, not how far.
// Node-local handoffs are free. This is the estimate migration decisions
// are gated on, because the controller is validated against exactly this
// runtime counter.
func bytesWith(plan *query.PlanNode, rate func(*query.PlanNode) float64, sink netgraph.NodeID) float64 {
	cross := func(n *query.PlanNode, to netgraph.NodeID) float64 {
		if n.Loc == to {
			return 0
		}
		return rate(n) * n.TupleWidth()
	}
	var walk func(n *query.PlanNode) float64
	walk = func(n *query.PlanNode) float64 {
		if n.IsLeaf() {
			return 0
		}
		if n.IsUnary() {
			return walk(n.L) + cross(n.L, n.Loc)
		}
		return walk(n.L) + walk(n.R) +
			cross(n.L, n.Loc) +
			cross(n.R, n.Loc)
	}
	return walk(plan) + cross(plan, sink)
}

// marginalGain predicts the change in the runtime's transport byte rate
// (bytes/s saved; negative means the migration adds traffic) of the
// migration diff describes, from the running plan's IR oldIR to the fresh
// plan's newIR, accounting for operator sharing. A whole-plan
// bytesWith(old) − bytesWith(fresh) comparison is wrong under reuse in
// both directions: edges into an old operator another deployment still
// references keep flowing after this query migrates away (phantom
// savings), and a fresh plan that attaches to an already-running shared
// operator adds no input edges (phantom costs). So the prediction walks
// the diff edge by edge:
//
//   - input edges of a retired operator stop flowing only if the operator
//     will actually be collected — no other deployment holds a reference
//     on it (Operator.Refs beyond this plan's own holds);
//   - input edges of a created operator start flowing only if the
//     operator is not already running at that node (reuse attaches to
//     existing wiring);
//   - a rewired operator swaps exactly the edges Migrate swaps;
//   - the root→sink edge always belongs to this query alone.
//
// Node-local edges are free, matching the runtime's TotalBytes
// accounting. Each sum adds in the diff's order — retired (or created)
// operators, then rewired edges, then the root — and a gate compares the
// result, so that order is part of the contract.
func (c *Controller) marginalGain(q *query.Query, oldIR, newIR []query.IROp, diff query.PlanDiff, est func(*query.PlanNode) float64) float64 {
	rate := make(map[query.OpRef]float64, len(oldIR)+len(newIR))
	width := make(map[query.OpRef]float64, len(oldIR)+len(newIR))
	holds := make(map[query.OpRef]int, len(oldIR))
	note := func(op query.IROp) {
		if _, ok := rate[op.Ref]; ok {
			return
		}
		rate[op.Ref] = est(op.Node)
		width[op.Ref] = op.Node.TupleWidth()
	}
	for _, op := range oldIR {
		holds[op.Ref]++
		note(op)
	}
	for _, op := range newIR {
		note(op)
	}
	cross := func(in query.OpRef, at netgraph.NodeID) float64 {
		if in.Loc == at {
			return 0
		}
		return rate[in] * width[in]
	}
	// Collection cascades top-down: an operator is only collected when
	// nothing subscribes to it, and its old-plan consumer's subscription
	// disappears only if that consumer is itself collected (or kept but
	// rewired away — a kept consumer still using it would have kept it in
	// the new plan too). So a retired operator survives if it is shared
	// (references beyond this plan's own holds) OR its retired parent
	// survives; reverse post-order visits parents before children.
	survive := make(map[query.OpRef]bool, len(diff.Retire))
	consumer := make(map[query.OpRef]query.OpRef, len(oldIR))
	for _, op := range oldIR {
		for _, in := range op.Inputs {
			consumer[in] = op.Ref
		}
	}
	for i := len(diff.Retire) - 1; i >= 0; i-- {
		op := diff.Retire[i]
		live := c.rt.Operator(op.Ref.Sig, op.Ref.Loc)
		if live == nil || live.Refs() > holds[op.Ref] {
			survive[op.Ref] = true // already gone, or shared: no flow stops
			continue
		}
		par, hasPar := consumer[op.Ref]
		psig, ploc := "", netgraph.NodeID(-1)
		if hasPar {
			psig, ploc = par.Sig, par.Loc
		}
		if live.SubscribedBeyond(psig, ploc, q.ID) {
			// A subscriber outside this plan (a containment residual
			// filter, another query's sink) holds no reference but keeps
			// the operator running all the same.
			survive[op.Ref] = true
			continue
		}
		if hasPar {
			pnew, parKept := diff.KeptAs(par)
			if parKept && pnew.Leaf {
				// The parent is kept but demoted to a leaf (the fresh plan
				// consumes it as an already-materialized stream): leaves own
				// no upstream wiring, so the subscription — and this whole
				// subtree — keeps running.
				survive[op.Ref] = true
				continue
			}
			if !parKept && survive[par] {
				survive[op.Ref] = true // surviving retired parent keeps subscribing
				continue
			}
		}
	}
	removed, added := 0.0, 0.0
	for _, op := range diff.Retire {
		if op.Leaf || survive[op.Ref] {
			continue // a survivor keeps running; its inputs keep flowing
		}
		for _, in := range op.Inputs {
			removed += cross(in, op.Ref.Loc)
		}
	}
	for _, op := range diff.Create {
		if op.Leaf {
			continue
		}
		if c.rt.Operator(op.Ref.Sig, op.Ref.Loc) != nil {
			continue // reused: the producing deployment already pays its inputs
		}
		for _, in := range op.Inputs {
			added += cross(in, op.Ref.Loc)
		}
	}
	for _, rw := range diff.Rewire {
		rw.ChangedInputs(func(in query.OpRef, _ int, isAdded bool) {
			if isAdded {
				added += cross(in, rw.New.Ref.Loc)
			} else {
				removed += cross(in, rw.Old.Ref.Loc)
			}
		})
	}
	oldRoot, newRoot := oldIR[len(oldIR)-1], newIR[len(newIR)-1]
	if oldRoot.Ref != newRoot.Ref {
		removed += cross(oldRoot.Ref, q.Sink)
		added += cross(newRoot.Ref, q.Sink)
	}
	return removed - added
}

// predictShipBytes prices a candidate migration's state shipping: every
// Move whose destination does not exist yet (Migrate only copies state
// into operators it creates) ships the source operator's live window and
// accumulator state across the link. Mirrors Migrate's shipping rules,
// filters excluded.
func (c *Controller) predictShipBytes(diff query.PlanDiff) float64 {
	var ship float64
	for _, mv := range diff.Move {
		if c.rt.Operator(mv.Sig, mv.To) != nil {
			continue // pre-existing destination keeps its own state
		}
		src := c.rt.Operator(mv.Sig, mv.From)
		if src == nil {
			continue
		}
		ship += src.StateBytes()
	}
	return ship
}

// rateOf returns a per-node output-rate estimator for plans of q,
// measured-first: a node whose operator is live right now (every node of
// the running plan, and any advertised derived stream a fresh plan would
// reuse) reports its windowed measured rate; a join that does not exist
// yet composes its children's estimates with ONE calibrated pairwise
// selectivity per join step. The analytic RateTable multiplies one
// selectivity per stream pair, which underestimates deep intermediates by
// orders of magnitude against the runtime's per-step window join — biased
// estimates there made every plan that ships reused intermediates look
// free, which is precisely the migration decision this estimator exists
// to get right.
func (c *Controller) rateOf(q *query.Query, rates query.RateTable) func(*query.PlanNode) float64 {
	var est func(n *query.PlanNode) float64
	est = func(n *query.PlanNode) float64 {
		sig := ""
		switch {
		case n.IsLeaf():
			sig = n.In.Sig
		case !n.IsUnary():
			sig = q.SigOf(n.Mask)
		}
		if sig != "" {
			if r := c.rt.WindowedRate(c.win, sig, n.Loc); r > 0 {
				return r
			}
		}
		switch {
		case n.IsLeaf():
			if n.In.Derived {
				// A containment reuse's residual filter may not exist yet,
				// but its physical output is determined: the measured base
				// stream thinned by the pass probability the runtime will
				// derive from the annotations. The annotation alone can be
				// off by the full pass-probability factor.
				if n.In.BaseSig != "" {
					if base := c.rt.Operator(n.In.BaseSig, n.Loc); base != nil {
						if br := c.rt.WindowedRate(c.win, n.In.BaseSig, n.Loc); br > 0 {
							return br * iflow.ResidualPassProb(n.Rate, base.ExpRate())
						}
					}
				}
				return n.Rate // not live and not measurable: trust the annotation
			}
			return rates.Rate(n.Mask) // calibrated base rate (× predicate selectivity)
		case n.IsUnary():
			return n.Rate
		}
		lp := n.L.Mask.Positions()
		rp := n.R.Mask.Positions()
		sel := c.cat.Selectivity(q.Sources[lp[0]], q.Sources[rp[0]])
		return est(n.L) * est(n.R) * sel
	}
	return est
}
