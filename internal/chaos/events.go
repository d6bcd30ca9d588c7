package chaos

import (
	"fmt"
	"strings"

	"hnp/internal/iflow"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// Kind identifies one class of adversarial event the harness injects.
type Kind int

const (
	// KindIdle advances virtual time without perturbing anything (tuples
	// keep flowing; windows expire; nothing structural changes).
	KindIdle Kind = iota
	// KindFailNode crashes a live node: its operators die, it leaves the
	// hierarchy, and every affected query is immediately re-planned
	// against the surviving network (queries that cannot be re-planned —
	// dead source or sink — are left undeployed).
	KindFailNode
	// KindRecoverNode brings a previously failed node back: it rejoins
	// the hierarchy via the paper's join protocol and becomes usable for
	// future placements and sources.
	KindRecoverNode
	// KindLinkCost drifts one link's per-byte cost; routing snapshots are
	// refreshed and the hierarchy re-binds to fresh paths.
	KindLinkCost
	// KindQueryArrive plans (Top-Down or Bottom-Up, chosen per event) and
	// deploys one idle query from the pool, advertising its operators.
	KindQueryArrive
	// KindQueryUndeploy tears one deployed query down and retracts
	// advertisements that no longer correspond to a running operator.
	KindQueryUndeploy
	// KindRateShift drifts one base stream's rate: the catalog's under the
	// default profile; under ProfileRateShift only the live taps', which
	// the catalog learns through the controller's calibration.
	KindRateShift
	// KindQueryMigrate re-plans one deployed query (Top-Down or Bottom-Up,
	// chosen per event) and applies the new plan as a diff-based migration:
	// operators shared by both plans keep running, only changed subtrees
	// churn, and delivery statistics must carry across without a reset.
	// Only scheduled when Config.Migrate is set.
	KindQueryMigrate
	// KindLinkBurst drifts several links' per-byte costs at once through
	// Engine.UpdateLinkCosts: one routing refresh for the whole burst,
	// then System.Refresh moves the planning side's path snapshot and
	// re-binds the hierarchy. Only scheduled by the rate-shift profile.
	KindLinkBurst
)

// String names the kind for traces.
func (k Kind) String() string {
	switch k {
	case KindIdle:
		return "idle"
	case KindFailNode:
		return "fail-node"
	case KindRecoverNode:
		return "recover-node"
	case KindLinkCost:
		return "link-cost"
	case KindQueryArrive:
		return "query-arrive"
	case KindQueryUndeploy:
		return "query-undeploy"
	case KindRateShift:
		return "rate-shift"
	case KindQueryMigrate:
		return "query-migrate"
	case KindLinkBurst:
		return "link-burst"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one schedule entry. Events are generated deterministically from
// the run's seed, so a recorded trace replays the run exactly.
type Event struct {
	// Index is the 0-based position in the schedule.
	Index int
	// Dt is the virtual time advanced before the event applies.
	Dt float64
	// Kind selects the perturbation.
	Kind Kind
	// Node is the failed/recovered node (KindFailNode, KindRecoverNode).
	Node netgraph.NodeID
	// A, B name the perturbed link (KindLinkCost).
	A, B netgraph.NodeID
	// Burst carries the batch of link-cost changes (KindLinkBurst).
	Burst []iflow.LinkCostUpdate
	// Value carries the new link cost or stream rate.
	Value float64
	// Stream is the shifted stream (KindRateShift).
	Stream query.StreamID
	// Query is the arriving/undeploying query ID.
	Query int
	// Algo names the planner used for an arrival ("top-down"/"bottom-up").
	Algo string
	// Note records the outcome (affected/recovered/failed query IDs, ...),
	// filled during application.
	Note string
}

// String renders one replayable trace line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%03d +%.4fs %s", e.Index, e.Dt, e.Kind)
	switch e.Kind {
	case KindFailNode, KindRecoverNode:
		fmt.Fprintf(&b, " node=%d", e.Node)
	case KindLinkCost:
		fmt.Fprintf(&b, " link=%d-%d cost=%.4f", e.A, e.B, e.Value)
	case KindQueryArrive, KindQueryMigrate:
		fmt.Fprintf(&b, " query=%d algo=%s", e.Query, e.Algo)
	case KindQueryUndeploy:
		fmt.Fprintf(&b, " query=%d", e.Query)
	case KindRateShift:
		fmt.Fprintf(&b, " stream=%d rate=%.4f", e.Stream, e.Value)
	case KindLinkBurst:
		parts := make([]string, len(e.Burst))
		for i, u := range e.Burst {
			parts[i] = fmt.Sprintf("%d-%d=%.4f", u.A, u.B, u.Cost)
		}
		fmt.Fprintf(&b, " links=[%s]", strings.Join(parts, " "))
	}
	if e.Note != "" {
		fmt.Fprintf(&b, " [%s]", e.Note)
	}
	return b.String()
}
