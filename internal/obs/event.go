package obs

import (
	"fmt"
	"time"
)

// This file defines the causal trace-event taxonomy. Metrics (obs.go,
// registry.go) answer "how much"; events answer "why": every autonomous
// decision the optimizer stack makes — planning a query, passing or
// failing an adaptation gate, applying or rolling back a migration,
// auditing an invariant — emits one Event linked to the event that caused
// it via ParentID. Walking parents from a MigrationApplied event
// reconstructs the full decision chain: which calibration window measured
// the drift, which gates the candidate passed, what the migration cost.

// Kind identifies what decision an event records. The taxonomy is
// deliberately small: one kind per decision site in the stack, not one
// per log line.
type Kind uint8

const (
	// KindNone marks an unset event (the zero value).
	KindNone Kind = iota
	// KindPlanStarted: a planner (top-down or bottom-up) began searching
	// for a placement. Detail names the algorithm.
	KindPlanStarted
	// KindPlanChosen: the search finished. Value is the chosen plan's
	// expected cost; Aux is the number of plans considered.
	KindPlanChosen
	// KindQueryDeployed: the dataflow runtime instantiated a plan. Aux is
	// the number of operators held by the deployment.
	KindQueryDeployed
	// KindQueryUndeployed: a deployment was released.
	KindQueryUndeployed
	// KindCalibrationWindow: the adaptation controller closed a
	// measurement window for one query. Value is the measured drift
	// (max relative rate change); Aux is the number of catalog
	// statistics recalibrated from runtime counters.
	KindCalibrationWindow
	// KindGateDecision: one adaptation gate (drift, delta, deadband,
	// hysteresis, cooldown, revert-holdoff) evaluated a candidate
	// re-plan. Gate names the gate, Pass records the verdict, Value and
	// Aux carry the gate's inputs (e.g. predicted gain vs churn cost).
	KindGateDecision
	// KindMigrationApplied: the runtime committed a diff-based
	// migration. Value is predicted bytes saved; Aux is state bytes
	// shipped.
	KindMigrationApplied
	// KindMigrationRolledBack: a migration failed mid-apply and was
	// rolled back; Detail carries the error.
	KindMigrationRolledBack
	// KindInvariantChecked: the chaos harness audited cross-stack
	// invariants after an event. Pass is the verdict; Detail names the
	// chaos event audited (and the violation, on failure).
	KindInvariantChecked
	// KindHierarchyChanged: the network hierarchy was rebuilt or patched
	// (node add/remove, rebind). Detail names the operation.
	KindHierarchyChanged
	// KindPathRefresh: a path snapshot was brought up to date after graph
	// churn. Value is the number of source rows recomputed, Aux the number
	// of changed links; Detail carries the refresh mode ("incremental" or
	// "full") and the metric.
	KindPathRefresh
	// KindRewriteApplied: the logical optimizer pipeline rewrote a query
	// before planning. Value is the planned source byte rate saved, Aux
	// the number of rules that changed the query; Detail carries the
	// per-rule audit trace.
	KindRewriteApplied
)

var kindNames = [...]string{
	KindNone:                "none",
	KindPlanStarted:         "plan_started",
	KindPlanChosen:          "plan_chosen",
	KindQueryDeployed:       "query_deployed",
	KindQueryUndeployed:     "query_undeployed",
	KindCalibrationWindow:   "calibration_window",
	KindGateDecision:        "gate_decision",
	KindMigrationApplied:    "migration_applied",
	KindMigrationRolledBack: "migration_rolled_back",
	KindInvariantChecked:    "invariant_checked",
	KindHierarchyChanged:    "hierarchy_changed",
	KindPathRefresh:         "path_refresh",
	KindRewriteApplied:      "rewrite_applied",
}

// String returns the snake_case taxonomy name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON renders the kind as its taxonomy name so JSONL dumps are
// self-describing.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses a taxonomy name back into a Kind. Unknown names
// decode to KindNone rather than erroring, so dumps from newer builds
// stay loadable.
func (k *Kind) UnmarshalJSON(b []byte) error {
	if len(b) >= 2 && b[0] == '"' {
		name := string(b[1 : len(b)-1])
		for i, n := range kindNames {
			if n == name {
				*k = Kind(i)
				return nil
			}
		}
	}
	*k = KindNone
	return nil
}

// NoID marks the Query/Node fields of events not tied to a query or node.
const NoID = -1

// Event is one recorded decision. The flight recorder does not keep
// Events: it encodes each into a compact record (flight.go) and decodes
// them back on Snapshot. Kind-specific meaning of Value/Aux/Gate is
// documented on each Kind.
type Event struct {
	// ID is unique per Tracer, assigned at emission, strictly increasing
	// in record order.
	ID uint64 `json:"id"`
	// Parent is the ID of the event that caused this one (0 = root).
	Parent uint64 `json:"parent,omitempty"`
	// Trace groups a causal chain; per-query lifecycles use
	// QueryTrace(queryID) so a whole lifecycle can be filtered in one
	// pass.
	Trace uint64 `json:"trace,omitempty"`
	Kind  Kind   `json:"kind"`
	// Wall is wall-clock nanoseconds since the Unix epoch, stamped at
	// emission (callers may pre-set it for deterministic tests).
	Wall int64 `json:"wall_ns,omitempty"`
	// VTime is virtual (simulation) seconds, when the emitter runs on
	// the discrete-event clock; 0 otherwise.
	VTime float64 `json:"vtime,omitempty"`
	// Query and Node use NoID when not applicable.
	Query int `json:"query"`
	Node  int `json:"node"`
	// Gate names the adaptation gate for KindGateDecision.
	Gate string `json:"gate,omitempty"`
	// Pass is the verdict for gate decisions and invariant checks.
	Pass bool `json:"pass"`
	// Value and Aux are kind-specific magnitudes (see Kind docs).
	Value float64 `json:"value,omitempty"`
	Aux   float64 `json:"aux,omitempty"`
	// Detail is free-form human context; emitters must only format it
	// when tracing is enabled (it is the one field that allocates).
	Detail string `json:"detail,omitempty"`
}

// QueryTrace maps a query ID to its lifecycle trace ID (0 is reserved for
// "no trace", so query 0 is representable).
func QueryTrace(queryID int) uint64 { return uint64(queryID) + 1 }

// Time returns the event's wall-clock timestamp.
func (e Event) Time() time.Time { return time.Unix(0, e.Wall) }
