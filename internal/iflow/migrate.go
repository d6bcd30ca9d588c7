package iflow

import (
	"fmt"

	"hnp/internal/obs"
	"hnp/internal/query"
)

// MigrationReport quantifies one diff-based plan migration.
type MigrationReport struct {
	// Kept counts operators shared by the old and new plan: they kept
	// running through the migration — windows, statistics and
	// subscribers intact.
	Kept int
	// Created counts operators the migration newly instantiated.
	Created int
	// Retired counts operators the migration removed from the runtime:
	// old operators released and collected, including upstream chains
	// that lost their last subscriber. Operators other deployments still
	// use are not retired, only released.
	Retired int
	// Moved counts logical operators present in both plans at different
	// nodes — physically a create+retire pair, reported separately
	// because their accumulated state could not be carried.
	Moved int
	// Rewired counts kept operators whose upstream producers changed
	// (typically because a child moved).
	Rewired int
	// StateCarried counts tuples buffered in kept operators' join
	// windows and aggregation accumulators at migration time — state a
	// full teardown would have destroyed.
	StateCarried int64
	// BytesSaved is the size of that carried state in cost units.
	BytesSaved float64
	// TeardownOps is the operator churn of the teardown path this
	// migration replaced: every old plan operator torn down plus every
	// new plan operator instantiated.
	TeardownOps int
	// StateShipped counts window and accumulator tuples copied from moved
	// operators' old hosts to their new ones so moved joins resume with
	// their windows instead of empty ones.
	StateShipped int64
	// BytesShipped is the size of that shipped state in cost units; it is
	// added to the runtime's TotalBytes — migrating is not free.
	BytesShipped float64
	// ShipCost is the bytes×link-cost of shipping that state, added to
	// the runtime's TotalCost. Adaptive controllers divide it by Delta()
	// to learn the measured per-operator cost of churn.
	ShipCost float64
}

// Delta returns the operator churn the migration actually cost: creates
// plus retires. Delta < TeardownOps is the point of migrating.
func (m MigrationReport) Delta() int { return m.Created + m.Retired }

// String renders the report for traces and logs.
func (m MigrationReport) String() string {
	return fmt.Sprintf("kept=%d created=%d retired=%d moved=%d rewired=%d carried=%d tuples (%.0f bytes) shipped=%d tuples (%.0f bytes; teardown churns %d ops)",
		m.Kept, m.Created, m.Retired, m.Moved, m.Rewired, m.StateCarried, m.BytesSaved, m.StateShipped, m.BytesShipped, m.TeardownOps)
}

// Migrate replaces a deployed query's plan by applying the diff between
// the running plan and the new one, transactionally:
//
//   - operators present in both plans (same canonical identity — see
//     query.DiffIR) keep running in place: their join windows, output
//     statistics and downstream subscribers survive, so shared-signature
//     operators and base-stream taps never flap;
//   - only the changed subtrees are instantiated, and only the operators
//     the old plan alone used are retired;
//   - kept operators whose children moved are rewired to their new
//     producers;
//   - the query's sink statistics object is untouched — counters carry
//     across the migration natively;
//   - instantiation is the only fallible phase and it precedes every
//     mutation of the old deployment: any error rolls the partial build
//     back and leaves the old plan running exactly as before.
//
// The query's sink cannot move (a query's sink is part of its identity);
// use Undeploy+Deploy for that. It returns a report of what the diff
// preserved and churned.
func (rt *Runtime) Migrate(q *query.Query, plan *query.PlanNode, cat *query.Catalog, until float64) (MigrationReport, error) {
	sp := rt.spMigrate.Start()
	defer sp.End()
	parent := rt.takeTraceParent()
	var rep MigrationReport
	dep, ok := rt.deploys[q.ID]
	if !ok {
		return rep, fmt.Errorf("iflow: query %d not deployed", q.ID)
	}
	if err := plan.Validate(); err != nil {
		return rep, fmt.Errorf("iflow: query %d: %w", q.ID, err)
	}
	sink := rt.sinks[q.ID]
	if q.Sink != sink.Node {
		return rep, fmt.Errorf("iflow: query %d migration cannot move the sink (%d -> %d)", q.ID, sink.Node, q.Sink)
	}
	rt.refreshPaths()

	// Flatten each plan exactly once: the deployed side's IR is cached on
	// the deployment (built lazily the first time it migrates), the new
	// side's is computed here and becomes the cache after the swap.
	if dep.ir == nil {
		dep.ir = q.IR(dep.plan)
	}
	oldIR, newIR := dep.ir, q.IR(plan)
	diff := query.DiffIR(oldIR, newIR)
	opsBefore := len(rt.ops)

	// Phase 1 — instantiate. The new plan is built while the old one
	// keeps running, so shared-identity operators are reused in place and
	// only changed subtrees allocate anything. This is the only fallible
	// phase: on error the partial build is rolled back and the old
	// deployment is untouched.
	inst, err := rt.instantiate(q, plan, cat, until)
	if err != nil {
		if rt.tr.On() {
			rt.tr.Emit(obs.Event{
				Kind: obs.KindMigrationRolledBack, Parent: parent, Trace: obs.QueryTrace(q.ID),
				Query: q.ID, Node: int(q.Sink), VTime: rt.Sim.Now(), Detail: err.Error(),
			})
		}
		return rep, err
	}

	// Measure the state the diff carried, before anything is retired.
	for _, k := range diff.Keep {
		op := rt.ops[keyOf(k.Old.Ref)]
		if op == nil {
			continue
		}
		op.buffered(func(_ side, t Tuple) {
			rep.StateCarried++
			rep.BytesSaved += t.Size
		})
		if op.isAgg && op.aggCount > 0 {
			rep.StateCarried++
			rep.BytesSaved += op.width
		}
	}

	// Ship moved operators' state. A Move is a create+retire pair sharing
	// a signature: the same logical operator at a new host. Before the old
	// instance is retired, its join windows and aggregation accumulator
	// are copied into the new instance — only when the migration itself
	// created it (a pre-existing shared operator already has its own state
	// and must not be overwritten). The copy crosses real links: each
	// shipped tuple is charged to TotalCost/TotalBytes at the old→new
	// link cost, so migrating under churn pays a measurable price — the
	// term adaptive hysteresis weighs against predicted savings.
	for _, mv := range diff.Move {
		toKey := opKey{sig: mv.Sig, node: mv.To}
		if !inst.created[toKey] {
			continue
		}
		oldOp, newOp := rt.ops[opKey{sig: mv.Sig, node: mv.From}], rt.ops[toKey]
		if oldOp == nil || newOp == nil || newOp.isFilter || oldOp.isFilter {
			continue
		}
		linkCost := rt.Cost.Dist(mv.From, mv.To)
		ship := func(t Tuple) {
			rt.TotalCost += t.Size * linkCost
			rt.TotalBytes += t.Size
			rt.noteSize(t.Size)
			rt.StateTuplesShipped++
			rt.StateBytesShipped += t.Size
			rep.StateShipped++
			rep.BytesShipped += t.Size
			rep.ShipCost += t.Size * linkCost
		}
		oldOp.buffered(func(s side, t Tuple) {
			newOp.win[s].insert(t)
			ship(t)
		})
		if oldOp.isAgg && newOp.isAgg && oldOp.aggCount > 0 {
			newOp.aggCount, newOp.aggBorn, newOp.aggNext = oldOp.aggCount, oldOp.aggBorn, oldOp.aggNext
			ship(Tuple{Size: oldOp.width})
		}
	}
	rt.obsStateShipped.Add(rep.StateShipped)

	// Phase 2 — rewire. Kept operators whose producer set changed get the
	// new producers subscribed and the stale ones detached, in the diff's
	// order. Newly created consumers were wired at instantiation; retired
	// producers lose their remaining subscriptions when collected.
	// Operators either plan consumes as a leaf keep the wiring their
	// producing deployment gave them (the diff never rewires them).
	for _, rw := range diff.Rewire {
		c := rt.ops[keyOf(rw.New.Ref)]
		rw.ChangedInputs(func(in query.OpRef, s int, added bool) {
			if p := rt.ops[keyOf(in)]; p != nil && added {
				feed(p, c, side(s))
			} else if p != nil {
				unfeed(p, c, side(s))
			}
		})
	}

	// Phase 3 — swap the sink subscription to the new root, unless the
	// root identity survived (then its existing subscription stands). The
	// SinkStats object is never touched: delivery counters carry over.
	// Post-order IR puts the root last.
	if oldIR[len(oldIR)-1].Ref != newIR[len(newIR)-1].Ref {
		rt.unsubscribeSink(q.ID, dep.held)
		inst.root.subscribe(subscription{sink: sink})
	}
	if sink.width != inst.root.width {
		// A new root with a different tuple width: deliveries before this
		// migration used the old width, so the exact per-sink byte
		// invariant no longer applies.
		if sink.Tuples > 0 {
			sink.mixed = true
		}
		sink.width = inst.root.width
	}

	// Phase 4 — retire. The old references are dropped and operators no
	// deployment references and nothing subscribes to are collected,
	// cascading up chains that lost their last subscriber.
	oldHeld := dep.held
	dep.plan, dep.ir, dep.held = plan, newIR, inst.held
	rt.release(oldHeld)

	rep.Kept = len(diff.Keep)
	rep.Created = len(inst.created)
	rep.Retired = opsBefore + len(inst.created) - len(rt.ops)
	rep.Moved = len(diff.Move)
	rep.Rewired = len(diff.Rewire)
	rep.TeardownOps = len(oldHeld) + len(inst.held)

	rt.obsMigrations.Inc()
	rt.obsMigKept.Add(int64(rep.Kept))
	rt.obsMigCreated.Add(int64(rep.Created))
	rt.obsMigRetired.Add(int64(rep.Retired))
	rt.obsMigMoved.Add(int64(rep.Moved))
	rt.obsMigBytesSaved.Add(rep.BytesSaved)
	if rt.tr.On() {
		rt.tr.Emit(obs.Event{
			Kind: obs.KindMigrationApplied, Parent: parent, Trace: obs.QueryTrace(q.ID),
			Query: q.ID, Node: int(plan.Loc), VTime: rt.Sim.Now(),
			Value: rep.BytesSaved, Aux: rep.BytesShipped, Detail: rep.String(),
		})
	}
	return rep, nil
}
