package adapt

import (
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// CheckGains makes the controller, for every candidate it re-plans, hand
// check the gain marginalGain predicts from the candidate's diff and the
// gain marginalGainOracle predicts from the two plans, both under the rate
// estimate and runtime state the candidate's Step sees. delta is the
// diff's churn: Step prices and migrates only candidates with delta > 0.
func CheckGains(c *Controller, check func(q *query.Query, delta int, got, oracle float64)) {
	replan := c.replan
	c.replan = func(q *query.Query) (*query.PlanNode, error) {
		fresh, err := replan(q)
		if err != nil {
			return fresh, err
		}
		old := c.rt.DeployedPlan(q.ID)
		est := c.rateOf(q, query.BuildRates(c.cat, q))
		oldIR, newIR := q.IR(old), q.IR(fresh)
		diff := query.DiffIR(oldIR, newIR)
		check(q, diff.Delta(), c.marginalGain(q, oldIR, newIR, diff, est),
			c.marginalGainOracle(q, old, fresh, est, query.DefaultTupleWidth))
		return fresh, nil
	}
}

// HasPolicy reports whether the controller keeps a policy entry for a
// query.
func HasPolicy(c *Controller, qid int) bool {
	_, ok := c.policy[qid]
	return ok
}

// marginalGainOracle is marginalGain as it was when it flattened both plans
// and found the kept, created and rewired operators itself, verbatim.
func (c *Controller) marginalGainOracle(q *query.Query, old, fresh *query.PlanNode, est func(*query.PlanNode) float64, tupleSize float64) float64 {
	oldIR, newIR := q.IR(old), q.IR(fresh)
	rate := make(map[query.OpRef]float64, len(oldIR)+len(newIR))
	width := make(map[query.OpRef]float64, len(oldIR)+len(newIR))
	oldByRef := make(map[query.OpRef]query.IROp, len(oldIR))
	holds := make(map[query.OpRef]int, len(oldIR))
	note := func(op query.IROp) {
		if _, ok := rate[op.Ref]; ok {
			return
		}
		rate[op.Ref] = est(op.Node)
		if w := op.Node.Width; w > 0 {
			width[op.Ref] = w
		} else {
			width[op.Ref] = tupleSize
		}
	}
	for _, op := range oldIR {
		oldByRef[op.Ref] = op
		holds[op.Ref]++
		note(op)
	}
	newByRef := make(map[query.OpRef]query.IROp, len(newIR))
	for _, op := range newIR {
		newByRef[op.Ref] = op
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
	survive := make(map[query.OpRef]bool, len(oldIR))
	consumer := make(map[query.OpRef]query.OpRef, len(oldIR))
	for _, op := range oldIR {
		for _, in := range op.Inputs {
			consumer[in] = op.Ref
		}
	}
	for i := len(oldIR) - 1; i >= 0; i-- {
		op := oldIR[i]
		if _, kept := newByRef[op.Ref]; kept {
			survive[op.Ref] = true
			continue
		}
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
			pnew, parKept := newByRef[par]
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
	for _, op := range oldIR {
		if op.Leaf {
			continue
		}
		if _, kept := newByRef[op.Ref]; kept {
			continue
		}
		if survive[op.Ref] {
			continue // keeps running; its inputs keep flowing
		}
		for _, in := range op.Inputs {
			removed += cross(in, op.Ref.Loc)
		}
	}
	for _, op := range newIR {
		if op.Leaf {
			continue
		}
		if _, wasOld := oldByRef[op.Ref]; wasOld {
			continue
		}
		if c.rt.Operator(op.Ref.Sig, op.Ref.Loc) != nil {
			continue // reused: the producing deployment already pays its inputs
		}
		for _, in := range op.Inputs {
			added += cross(in, op.Ref.Loc)
		}
	}
	for _, nop := range newIR {
		oop, kept := oldByRef[nop.Ref]
		if !kept || nop.Leaf || oop.Leaf {
			continue
		}
		for i, in := range nop.Inputs {
			if i < len(oop.Inputs) && oop.Inputs[i] == in {
				continue
			}
			added += cross(in, nop.Ref.Loc)
		}
		for i, in := range oop.Inputs {
			if i < len(nop.Inputs) && nop.Inputs[i] == in {
				continue
			}
			removed += cross(in, oop.Ref.Loc)
		}
	}
	oldRoot, newRoot := oldIR[len(oldIR)-1], newIR[len(newIR)-1]
	if oldRoot.Ref != newRoot.Ref {
		removed += cross(oldRoot.Ref, q.Sink)
		added += cross(newRoot.Ref, q.Sink)
	}
	return removed - added
}
