package iflow

import (
	"fmt"
	"slices"

	"hnp/internal/core"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
)

// Deploy instantiates a placed plan in the runtime: base-stream taps are
// started (or found) at source nodes, join operators are created at their
// assigned nodes — unless an operator with the same signature already
// runs there, in which case it is reused and merely gains a subscriber —
// and the root output is subscribed to the query's sink. cat maps base
// streams to emission rates; until bounds source lifetimes.
//
// Deploy composes the runtime's three deployment primitives: instantiate
// (build or reuse the operator tree, taking references), subscribe (wire
// the root to the sink) and, on teardown, release. Runtime.Migrate
// composes the same primitives diff-wise to replace a running plan
// without tearing down what both plans share.
func (rt *Runtime) Deploy(q *query.Query, plan *query.PlanNode, cat *query.Catalog, until float64) error {
	sp := rt.spDeploy.Start()
	defer sp.End()
	parent := rt.takeTraceParent()
	if _, ok := rt.deploys[q.ID]; ok {
		return fmt.Errorf("iflow: query %d already deployed", q.ID)
	}
	if err := plan.Validate(); err != nil {
		return fmt.Errorf("iflow: query %d: %w", q.ID, err)
	}
	rt.refreshPaths()
	inst, err := rt.instantiate(q, plan, cat, until)
	if err != nil {
		return err
	}
	rt.sinks[q.ID] = &SinkStats{Node: q.Sink, query: q.ID, width: inst.root.width}
	inst.root.subscribe(subscription{sink: rt.sinks[q.ID]})
	rt.deploys[q.ID] = &deployment{q: q, plan: plan, held: inst.held}
	if rt.tr.On() {
		rt.tr.Emit(obs.Event{
			Kind: obs.KindQueryDeployed, Parent: parent, Trace: obs.QueryTrace(q.ID),
			Query: q.ID, Node: int(q.Sink), VTime: rt.Sim.Now(), Aux: float64(len(inst.held)),
		})
	}
	return nil
}

// instantiation records the outcome of building one plan's operator tree:
// the references taken (one per plan node, post-order), the operators the
// build newly created (vs reused from running deployments), and the root
// producer.
type instantiation struct {
	held    []opKey
	created map[opKey]bool
	root    *Operator
}

// instantiate builds or reuses the operator tree for a placed plan. An
// operator with a matching identity (signature, node) that is already
// running is reused in place — windows, statistics and subscribers
// untouched; everything else is created and wired to its children. On
// error every reference taken so far is rolled back and partially created
// operators are collected: the runtime is exactly as before the call.
func (rt *Runtime) instantiate(q *query.Query, plan *query.PlanNode, cat *query.Catalog, until float64) (*instantiation, error) {
	inst := &instantiation{created: map[opKey]bool{}}
	root, err := rt.instantiateNode(q, plan, cat, until, inst)
	if err != nil {
		rt.release(inst.held)
		return nil, err
	}
	inst.root = root
	return inst, nil
}

// instantiateNode returns the operator producing node n's output, taking
// one reference on it.
func (rt *Runtime) instantiateNode(q *query.Query, n *query.PlanNode, cat *query.Catalog, until float64, inst *instantiation) (*Operator, error) {
	hold := func(op *Operator) *Operator {
		op.refs++
		inst.held = append(inst.held, op.key)
		return op
	}
	if n.IsLeaf() {
		if n.In.Derived {
			op := rt.Operator(n.In.Sig, n.Loc)
			if op == nil && n.In.BaseSig != "" {
				// Containment reuse: attach a residual filter at the
				// producing node, narrowing the weaker stream to this
				// query's predicates.
				base := rt.Operator(n.In.BaseSig, n.Loc)
				if base == nil {
					return nil, fmt.Errorf("iflow: contained stream %s@%d not deployed", n.In.BaseSig, n.Loc)
				}
				key := opKey{sig: n.In.Sig, node: n.Loc}
				op = &Operator{key: key, isFilter: true, passProb: ResidualPassProb(n.Rate, base.expRate), expRate: n.Rate, width: n.TupleWidth()}
				rt.ops[key] = op
				inst.created[key] = true
				feed(base, op, leftSide)
			}
			if op == nil {
				return nil, fmt.Errorf("iflow: reused stream %s@%d not deployed", n.In.Sig, n.Loc)
			}
			return hold(op), nil
		}
		// Base stream: one tap shared by all queries.
		op := rt.Operator(n.In.Sig, n.Loc)
		if op == nil {
			ids := q.StreamsOf(n.Mask)
			if len(ids) != 1 {
				return nil, fmt.Errorf("iflow: base leaf covering %d streams", len(ids))
			}
			var err error
			op, err = rt.StartSource(n.In.Sig, n.Loc, cat.Stream(ids[0]).Rate, until)
			if err != nil {
				return nil, err
			}
			// The tap emits the plan's shipped width for this stream (the
			// pruned width when the rewrite pipeline dropped columns).
			// Differently-projected streams have different signatures, so a
			// shared tap is never re-widened by a later deployment.
			op.width = n.TupleWidth()
			inst.created[op.key] = true
		}
		return hold(op), nil
	}
	if n.IsUnary() {
		child, err := rt.instantiateNode(q, n.L, cat, until, inst)
		if err != nil {
			return nil, err
		}
		key := opKey{sig: n.Unary.Sig, node: n.Loc}
		op := rt.ops[key]
		if op == nil {
			op = &Operator{
				key: key, isAgg: true, aggWindow: n.Unary.Agg.Window, expRate: n.Rate, width: n.TupleWidth(),
			}
			rt.ops[key] = op
			inst.created[key] = true
			feed(child, op, leftSide)
		}
		return hold(op), nil
	}
	l, err := rt.instantiateNode(q, n.L, cat, until, inst)
	if err != nil {
		return nil, err
	}
	r, err := rt.instantiateNode(q, n.R, cat, until, inst)
	if err != nil {
		return nil, err
	}
	sig := q.SigOf(n.Mask)
	key := opKey{sig: sig, node: n.Loc}
	op := rt.ops[key]
	if op == nil {
		op = &Operator{key: key, window: Window, expRate: n.Rate, width: n.TupleWidth()}
		rt.ops[key] = op
		inst.created[key] = true
		feed(l, op, leftSide)
		feed(r, op, rightSide)
	}
	return hold(op), nil
}

// release drops one reference per held key (nil-safe for operators a node
// failure already removed) and collects each operator it leaves unused.
func (rt *Runtime) release(held []opKey) {
	for _, k := range held {
		if op := rt.ops[k]; op != nil {
			op.refs--
			rt.collect(op)
		}
	}
}

// ResidualPassProb returns the probability a containment residual filter
// passes an upstream tuple: the narrowed rate over the base stream's
// expected rate. The degenerate edges are explicit rather than silent —
// an uncalibrated base (expected rate <= 0) or a "narrowed" rate at or
// above the base mean the filter cannot narrow anything, so it passes
// everything; a non-positive narrowed rate passes nothing.
func ResidualPassProb(narrowed, base float64) float64 {
	if base <= 0 || narrowed >= base {
		return 1
	}
	if narrowed <= 0 {
		return 0
	}
	return narrowed / base
}

// subscribe adds a subscription unless an identical one exists (reuse by
// several queries must not duplicate the stream), reporting whether it did.
func (op *Operator) subscribe(s subscription) bool {
	if slices.Contains(op.subs, s) {
		return false
	}
	op.subs = append(op.subs, s)
	return true
}

// unsubscribe removes a subscription, reporting whether there was one.
func (op *Operator) unsubscribe(s subscription) bool {
	i := slices.Index(op.subs, s)
	if i < 0 {
		return false
	}
	op.subs = slices.Delete(op.subs, i, i+1)
	return true
}

// feed subscribes side s of operator c to p's output and lists p among c's
// producers. With unfeed it is the only place an operator edge changes.
func feed(p, c *Operator, s side) {
	if p.subscribe(subscription{op: c, side: s}) {
		c.in = append(c.in, p)
	}
}

// unfeed undoes feed.
func unfeed(p, c *Operator, s side) {
	if p.unsubscribe(subscription{op: c, side: s}) {
		i := slices.Index(c.in, p)
		c.in = slices.Delete(c.in, i, i+1)
	}
}

// Undeploy tears a query down: its operator references are released and
// operators no longer referenced by any deployment are removed, together
// with their upstream subscriptions. Base taps persist while referenced.
func (rt *Runtime) Undeploy(queryID int) error {
	parent := rt.takeTraceParent()
	dep, ok := rt.deploys[queryID]
	if !ok {
		return fmt.Errorf("iflow: query %d not deployed", queryID)
	}
	rt.unsubscribeSink(queryID, dep.held)
	delete(rt.deploys, queryID)
	rt.release(dep.held)
	if rt.tr.On() {
		rt.tr.Emit(obs.Event{
			Kind: obs.KindQueryUndeployed, Parent: parent, Trace: obs.QueryTrace(queryID),
			Query: queryID, Node: int(rt.sinks[queryID].Node), VTime: rt.Sim.Now(),
		})
	}
	return nil
}

// unsubscribeSink detaches a query's sink from the root of the operator
// tree it holds: the last held key, since holds are taken post-order. A
// root a node failure already removed holds nothing to detach.
func (rt *Runtime) unsubscribeSink(queryID int, held []opKey) {
	if root := rt.ops[held[len(held)-1]]; root != nil {
		root.unsubscribe(subscription{sink: rt.sinks[queryID]})
	}
}

// retire takes an operator out of the runtime — the one way out, for
// collected and crashed operators alike: tuples still arriving for it are
// dropped, OnRetire learns that its stream stopped, and its links go.
func (rt *Runtime) retire(op *Operator) {
	op.retired = true
	delete(rt.ops, op.key)
	if rt.OnRetire != nil {
		rt.OnRetire(op.key.sig, op.key.node)
	}
	rt.unlink(op)
}

// unlink cuts a retired operator's edges: its consumers (only a crashed one
// has any) drop it, and each producer stops feeding it and is collected.
func (rt *Runtime) unlink(op *Operator) {
	for i := len(op.subs) - 1; i >= 0; i-- {
		if s := op.subs[i]; s.op != nil {
			unfeed(op, s.op, s.side)
		}
	}
	for len(op.in) > 0 {
		p := op.in[len(op.in)-1]
		i := slices.IndexFunc(p.subs, func(s subscription) bool { return s.op == op })
		unfeed(p, op, p.subs[i].side)
		rt.collect(p)
	}
}

// collect retires an operator no deployment holds and nothing consumes.
func (rt *Runtime) collect(op *Operator) {
	if op.refs <= 0 && len(op.subs) == 0 {
		rt.retire(op)
	}
}

// DeployTime replays a planning trace over the simulated network and
// returns the wall-clock seconds the deployment protocol takes: the query
// registration travels from the sink to the first coordinator, each
// coordinator spends CPU proportional to the solutions it examines, and
// planning hand-offs ride delay-shortest paths with per-hop overhead.
// Children of one step proceed in parallel (Top-Down fans out; Bottom-Up
// chains).
func (rt *Runtime) DeployTime(trace *core.PlanStep, sink netgraph.NodeID) float64 {
	if trace == nil {
		return 0
	}
	rt.refreshPaths()
	var finish func(s *core.PlanStep, arrival float64) float64
	finish = func(s *core.PlanStep, arrival float64) float64 {
		done := arrival + s.Plans*computePerPlan
		end := done
		for _, ch := range s.Children {
			t := finish(ch, done+rt.msgDelay(s.Coordinator, ch.Coordinator))
			if t > end {
				end = t
			}
		}
		return end
	}
	return finish(trace, rt.msgDelay(sink, trace.Coordinator))
}

func (rt *Runtime) msgDelay(a, b netgraph.NodeID) float64 {
	if a == b {
		return 0
	}
	hops := rt.Delay.Hops(a, b)
	if hops < 0 {
		hops = 1
	}
	return rt.Delay.Dist(a, b) + float64(hops)*hopOverhead
}
