package iflow

import (
	"fmt"
	"math"
	"sort"

	"hnp/internal/netgraph"
)

// CheckInvariants audits the runtime's internal consistency and returns
// the first violation found. liveNode, when non-nil, reports whether a
// physical node is currently alive; every hosted operator must then sit on
// a live node (FailNode must have swept dead nodes clean).
//
// The checks, in order:
//
//   - every operator is indexed under its own key, holds a non-negative
//     reference count, and (with liveNode) runs on a live node;
//   - every subscription is well-formed: operator subscriptions name a
//     live operator, sink subscriptions the sink a deployed query records;
//   - links mirror subscriptions: a consumer lists a producer once per
//     subscription the producer holds into it (so only live producers);
//   - each deployed query holds exactly one sink subscription and only
//     references operators that exist; per-operator reference counts equal
//     the number of deployment holds on them;
//   - an operator with no references has at least one subscriber (it is
//     kept alive only to feed downstream work — anything else is garbage
//     Undeploy failed to collect);
//   - the subscription graph between operators is acyclic;
//   - per-operator emission homogeneity: every operator's produced bytes
//     equal its tuple width (PlanNode.TupleWidth at creation) times its
//     produced tuple count — widths never change over an operator's life;
//   - transport conservation: when every byte ever charged had one
//     uniform size (the width-free legacy mode, or a fleet pruned to a
//     single width) total bytes equal that size times the
//     transferred-plus-state-shipped tuple count exactly; under mixed
//     per-operator widths the total is instead bracketed by the smallest
//     and largest size ever charged. The in-flight ledger is
//     non-negative, and per-sink byte counts match delivered tuples at
//     the sink's root width (exact unless a migration changed the root
//     width mid-stream).
//
// It is a read-only audit intended for tests and the chaos harness; cost
// is linear in operators + subscriptions.
func (rt *Runtime) CheckInvariants(liveNode func(netgraph.NodeID) bool) error {
	keys := make([]opKey, 0, len(rt.ops))
	for k := range rt.ops {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sig != keys[j].sig {
			return keys[i].sig < keys[j].sig
		}
		return keys[i].node < keys[j].node
	})

	sinkSubs := map[int]int{}       // query ID -> sink subscriptions seen
	links := map[[2]*Operator]int{} // (producer, consumer) -> subscriptions minus listings
	unlisted := 0                   // operator subscriptions minus listings
	for _, k := range keys {
		op := rt.ops[k]
		if op.key != k {
			return fmt.Errorf("iflow: operator indexed at %s@%d carries key %s@%d", k.sig, k.node, op.key.sig, op.key.node)
		}
		if liveNode != nil && !liveNode(k.node) {
			return fmt.Errorf("iflow: operator %s@%d hosted on a dead node", k.sig, k.node)
		}
		if op.refs < 0 {
			return fmt.Errorf("iflow: operator %s@%d has negative refcount %d", k.sig, k.node, op.refs)
		}
		if op.refs == 0 && len(op.subs) == 0 {
			return fmt.Errorf("iflow: orphan operator %s@%d (no references, no subscribers)", k.sig, k.node)
		}
		for _, s := range op.subs {
			if s.sink != nil {
				qid := s.sink.query
				if rt.sinks[qid] != s.sink {
					return fmt.Errorf("iflow: %s@%d delivers to a stale sink of query %d", k.sig, k.node, qid)
				}
				if _, deployed := rt.deploys[qid]; !deployed {
					return fmt.Errorf("iflow: %s@%d still delivers to undeployed query %d", k.sig, k.node, qid)
				}
				sinkSubs[qid]++
				continue
			}
			if c := s.op; rt.ops[c.key] != c {
				return fmt.Errorf("iflow: %s@%d subscribes missing operator %s@%d", k.sig, k.node, c.key.sig, c.key.node)
			}
			links[[2]*Operator{op, s.op}]++
			unlisted++
		}
	}
	// Links mirror subscriptions: a consumer lists a producer once per
	// subscription the producer holds into it, and lists nothing else.
	for _, k := range keys {
		c := rt.ops[k]
		for _, p := range c.in {
			if links[[2]*Operator{p, c}]--; links[[2]*Operator{p, c}] < 0 {
				return fmt.Errorf("iflow: %s@%d lists producer %s@%d beyond its subscriptions into it", k.sig, k.node, p.key.sig, p.key.node)
			}
			unlisted--
		}
	}
	if unlisted != 0 {
		return fmt.Errorf("iflow: %d operator subscriptions missing from their consumers' producer lists", unlisted)
	}

	// Deployment holds vs. operator reference counts.
	qids := make([]int, 0, len(rt.deploys))
	for qid := range rt.deploys {
		qids = append(qids, qid)
	}
	sort.Ints(qids)
	holds := map[opKey]int{}
	for _, qid := range qids {
		if sinkSubs[qid] != 1 {
			return fmt.Errorf("iflow: deployed query %d has %d sink subscriptions, want 1", qid, sinkSubs[qid])
		}
		if rt.sinks[qid] == nil {
			return fmt.Errorf("iflow: deployed query %d has no sink stats", qid)
		}
		if rt.deploys[qid].plan == nil {
			return fmt.Errorf("iflow: deployed query %d records no plan", qid)
		}
		for _, k := range rt.deploys[qid].held {
			if rt.ops[k] == nil {
				return fmt.Errorf("iflow: query %d holds missing operator %s@%d", qid, k.sig, k.node)
			}
			holds[k]++
		}
	}
	for _, k := range keys {
		if op := rt.ops[k]; op.refs != holds[k] {
			return fmt.Errorf("iflow: operator %s@%d refcount %d, %d deployment holds", k.sig, k.node, op.refs, holds[k])
		}
	}

	if err := rt.checkAcyclic(keys); err != nil {
		return err
	}

	// Emission homogeneity: an operator's width is fixed at creation, so
	// its byte output is exactly width × count regardless of what mix of
	// widths the rest of the fleet runs at.
	for _, k := range keys {
		op := rt.ops[k]
		if want := op.width * float64(op.OutCount); !approxEq(op.OutBytes, want) {
			return fmt.Errorf("iflow: operator %s@%d emitted %d tuples of width %g but %g bytes (want %g)",
				k.sig, k.node, op.OutCount, op.width, op.OutBytes, want)
		}
	}

	// Transport conservation. Every byte charged to TotalBytes came from a
	// transferred or state-shipped tuple whose size the runtime bracketed
	// in [minTupleSize, maxTupleSize]; with a uniform bracket the formulas
	// are exact.
	if rt.InFlight() < 0 {
		return fmt.Errorf("iflow: negative in-flight ledger %d (sent %d)", rt.InFlight(), rt.TuplesSent)
	}
	if rt.TuplesTransferred > rt.TuplesSent {
		return fmt.Errorf("iflow: %d tuples crossed links but only %d were sent", rt.TuplesTransferred, rt.TuplesSent)
	}
	moved := rt.TuplesTransferred + rt.StateTuplesShipped
	if rt.minTupleSize == rt.maxTupleSize {
		size := rt.maxTupleSize // 0 exactly when nothing moved yet
		if want := size * float64(moved); !approxEq(rt.TotalBytes, want) {
			return fmt.Errorf("iflow: %d transferred + %d shipped tuples of size %g account %g bytes, runtime recorded %g",
				rt.TuplesTransferred, rt.StateTuplesShipped, size, want, rt.TotalBytes)
		}
		if want := size * float64(rt.StateTuplesShipped); !approxEq(rt.StateBytesShipped, want) {
			return fmt.Errorf("iflow: %d shipped tuples of size %g account %g bytes, runtime recorded %g",
				rt.StateTuplesShipped, size, want, rt.StateBytesShipped)
		}
	} else {
		lo, hi := rt.minTupleSize*float64(moved), rt.maxTupleSize*float64(moved)
		if rt.TotalBytes < lo-1e-6 || rt.TotalBytes > hi+1e-6 {
			return fmt.Errorf("iflow: %d moved tuples of widths [%g,%g] bound bytes to [%g,%g], runtime recorded %g",
				moved, rt.minTupleSize, rt.maxTupleSize, lo, hi, rt.TotalBytes)
		}
		lo, hi = rt.minTupleSize*float64(rt.StateTuplesShipped), rt.maxTupleSize*float64(rt.StateTuplesShipped)
		if rt.StateBytesShipped < lo-1e-6 || rt.StateBytesShipped > hi+1e-6 {
			return fmt.Errorf("iflow: %d shipped tuples of widths [%g,%g] bound bytes to [%g,%g], runtime recorded %g",
				rt.StateTuplesShipped, rt.minTupleSize, rt.maxTupleSize, lo, hi, rt.StateBytesShipped)
		}
	}
	sids := make([]int, 0, len(rt.sinks))
	for qid := range rt.sinks {
		sids = append(sids, qid)
	}
	sort.Ints(sids)
	for _, qid := range sids {
		s := rt.sinks[qid]
		if s.Tuples < 0 || s.Bytes < 0 || s.LatencySum < 0 {
			return fmt.Errorf("iflow: sink %d has negative statistics %+v", qid, *s)
		}
		if s.mixed {
			continue // root width changed mid-stream; counts stay audited above
		}
		if want := s.width * float64(s.Tuples); !approxEq(s.Bytes, want) {
			return fmt.Errorf("iflow: sink %d delivered %d tuples of width %g but %g bytes (want %g)", qid, s.Tuples, s.width, s.Bytes, want)
		}
	}
	return nil
}

// DeployedQueries returns the IDs of currently deployed queries, sorted.
func (rt *Runtime) DeployedQueries() []int {
	out := make([]int, 0, len(rt.deploys))
	for qid := range rt.deploys {
		out = append(out, qid)
	}
	sort.Ints(out)
	return out
}

// checkAcyclic verifies the operator-to-operator subscription graph has no
// cycles (a cycle would feed an operator its own output and melt the
// simulation into an infinite tuple loop).
func (rt *Runtime) checkAcyclic(keys []opKey) error {
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := map[opKey]int{}
	var visit func(k opKey) error
	visit = func(k opKey) error {
		switch state[k] {
		case inStack:
			return fmt.Errorf("iflow: subscription cycle through %s@%d", k.sig, k.node)
		case done:
			return nil
		}
		state[k] = inStack
		for _, s := range rt.ops[k].subs {
			if s.sink != nil {
				continue
			}
			if err := visit(s.op.key); err != nil {
				return err
			}
		}
		state[k] = done
		return nil
	}
	for _, k := range keys {
		if err := visit(k); err != nil {
			return err
		}
	}
	return nil
}

// approxEq compares accumulated float totals with a relative tolerance.
func approxEq(a, b float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*math.Max(scale, 1)
}
