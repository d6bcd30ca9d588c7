package query

import (
	"fmt"
	"slices"
	"sort"

	"hnp/internal/netgraph"
)

// This file defines the canonical plan IR the runtime migrates over.
// Every plan node has a stable identity (Sig, Loc) derived from the
// signature machinery: two plans computed at different times agree on an
// operator exactly when they agree on its identity, so the difference
// between an old and a new plan — what survives a re-plan — is a set
// computation over identities, not a tree comparison.

// OpRef is the canonical identity of one plan operator: the signature of
// the stream it produces (streams joined plus the predicates they were
// computed under) and the physical node where that stream materializes.
// Identities are diff-stable: planners that emit the same logical
// operator at the same node emit the same OpRef, whatever the
// surrounding tree looks like.
type OpRef struct {
	Sig string
	Loc netgraph.NodeID
}

// String renders the identity as "sig@node".
func (r OpRef) String() string { return fmt.Sprintf("%s@%d", r.Sig, r.Loc) }

// Ident returns the canonical identity of a plan node within one of q's
// plans: leaves are identified by their input's signature, unary
// operators by their output signature, joins by the signature of the
// covered sub-join (predicates included, via SigOf).
func (q *Query) Ident(n *PlanNode) OpRef {
	switch {
	case n.IsLeaf():
		return OpRef{Sig: n.In.Sig, Loc: n.Loc}
	case n.IsUnary():
		return OpRef{Sig: n.Unary.Sig, Loc: n.Loc}
	default:
		return OpRef{Sig: q.SigOf(n.Mask), Loc: n.Loc}
	}
}

// IROp is one operator of a plan's canonical IR.
type IROp struct {
	// Ref is the operator's identity.
	Ref OpRef
	// Inputs are the identities of the producers feeding it, in child
	// order (left then right). It is nil for leaves: a leaf consumes an
	// already-materialized stream, and its upstream wiring — if any —
	// belongs to the deployment that created the stream, not to this
	// plan.
	Inputs []OpRef
	// Leaf marks plan leaves (inputs consumed as-is).
	Leaf bool
	// Node is the plan node carrying the operator.
	Node *PlanNode
}

// IR flattens a placed plan into its canonical operator IR in post-order
// (children before parents), one entry per plan node.
func (q *Query) IR(root *PlanNode) []IROp {
	var out []IROp
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		if n.IsLeaf() {
			out = append(out, IROp{Ref: q.Ident(n), Leaf: true, Node: n})
			return
		}
		if n.IsUnary() {
			walk(n.L)
			out = append(out, IROp{
				Ref:    q.Ident(n),
				Inputs: []OpRef{q.Ident(n.L)},
				Node:   n,
			})
			return
		}
		walk(n.L)
		walk(n.R)
		out = append(out, IROp{
			Ref:    q.Ident(n),
			Inputs: []OpRef{q.Ident(n.L), q.Ident(n.R)},
			Node:   n,
		})
	}
	walk(root)
	return out
}

// Move records a logical operator present in both plans but placed at a
// different node: physically a create+retire pair, semantically the same
// operator changing hosts (its accumulated state cannot be carried).
type Move struct {
	Sig      string
	From, To netgraph.NodeID
}

// PlanDiff is the difference between two plans of the same query as a set
// of actions over canonical identities. Applying a diff costs work
// proportional to Create+Retire+Rewire, never to the plan size: Keep is
// free. It is the one place two plans are compared: the runtime applies
// it (iflow.Migrate) and the adaptation controller prices it, reading the
// same entries in the same order.
type PlanDiff struct {
	// Keep lists operators present in both plans, in old post-order: they
	// survive a migration untouched, windows, statistics and subscribers
	// intact.
	Keep []KeptOp
	// Create lists operators only the new plan contains, in new
	// post-order.
	Create []IROp
	// Retire lists operators only the old plan contains, in old
	// post-order.
	Retire []IROp
	// Move pairs up Create/Retire entries that share a signature: the
	// same logical operator at a new node. Sorted by signature.
	Move []Move
	// Rewire lists kept operators computed by both plans whose producer
	// set changed (typically because a child moved), in new post-order; a
	// migration must re-attach their upstream subscriptions. Operators a
	// plan consumes as a leaf keep whatever wiring their producing
	// deployment gave them and are never rewired.
	Rewire []KeptOp

	// newOps indexes the new plan's operators by identity.
	newOps map[OpRef]IROp
}

// KeptOp is one operator both plans contain: its IR entry in each. The
// identities are equal; Leaf and Inputs may differ.
type KeptOp struct {
	Old, New IROp
}

// ChangedInputs calls f for every input edge the two entries disagree on,
// position by position, with the input's side (0 left, 1 right): first
// the edges only the new plan has (added), then those only the old plan
// had. A kept operator whose inputs match yields nothing.
func (k KeptOp) ChangedInputs(f func(in OpRef, side int, added bool)) {
	for i, in := range k.New.Inputs {
		if i >= len(k.Old.Inputs) || k.Old.Inputs[i] != in {
			f(in, i, true)
		}
	}
	for i, in := range k.Old.Inputs {
		if i >= len(k.New.Inputs) || k.New.Inputs[i] != in {
			f(in, i, false)
		}
	}
}

// KeptAs reports whether the old plan's operator r is kept, and as which
// entry of the new plan (a kept operator may become a leaf). r must name
// an operator of the old plan.
func (d PlanDiff) KeptAs(r OpRef) (IROp, bool) {
	op, ok := d.newOps[r]
	return op, ok
}

// Delta returns the operator churn applying the diff costs: creates plus
// retires. A migration is worthwhile exactly when this is small relative
// to the plan size.
func (d PlanDiff) Delta() int { return len(d.Create) + len(d.Retire) }

// DiffIR computes the canonical difference between two placed plans of
// the same query, given as their IRs (Query.IR): callers flatten each plan
// once — flattening dominates diffing, every join identity being a
// signature computation — and the runtime caches the deployed side's.
// Identities are compared as sets; within one plan each signature appears
// at most once (signatures are canonical per stream set and predicates,
// and a tree visits each mask once), so a signature present on both sides
// at different locations is reported as a Move.
func DiffIR(oldIR, newIR []IROp) PlanDiff {
	oldByRef := make(map[OpRef]IROp, len(oldIR))
	oldLoc := make(map[string]netgraph.NodeID, len(oldIR))
	for _, op := range oldIR {
		oldByRef[op.Ref] = op
		oldLoc[op.Sig()] = op.Ref.Loc
	}

	d := PlanDiff{newOps: make(map[OpRef]IROp, len(newIR))}
	for _, op := range newIR {
		d.newOps[op.Ref] = op
		prev, kept := oldByRef[op.Ref]
		if !kept {
			d.Create = append(d.Create, op)
			if from, ok := oldLoc[op.Sig()]; ok && from != op.Ref.Loc {
				d.Move = append(d.Move, Move{Sig: op.Sig(), From: from, To: op.Ref.Loc})
			}
			continue
		}
		if !op.Leaf && !prev.Leaf && !slices.Equal(prev.Inputs, op.Inputs) {
			d.Rewire = append(d.Rewire, KeptOp{Old: prev, New: op})
		}
	}
	for _, op := range oldIR {
		if nop, kept := d.newOps[op.Ref]; kept {
			d.Keep = append(d.Keep, KeptOp{Old: op, New: nop})
		} else {
			d.Retire = append(d.Retire, op)
		}
	}
	sort.Slice(d.Move, func(i, j int) bool { return d.Move[i].Sig < d.Move[j].Sig })
	return d
}

// Sig returns the identity's signature (convenience for Move pairing).
func (op IROp) Sig() string { return op.Ref.Sig }
