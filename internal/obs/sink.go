package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sync"
)

// Sink consumes snapshots: periodic emission to a log, a terminal, or a
// pull-based surface like expvar.
type Sink interface {
	Emit(Snapshot) error
}

// JSONSink writes each snapshot as one JSON object per line — the
// machine-readable feed for long experiment sweeps.
type JSONSink struct {
	W io.Writer
}

// Emit writes the snapshot as a single JSON line.
func (s JSONSink) Emit(snap Snapshot) error {
	enc := json.NewEncoder(s.W)
	return enc.Encode(snap)
}

// TextSink renders snapshots as aligned human-readable text, one metric
// per line, sorted by name.
type TextSink struct {
	W io.Writer
}

// Emit writes the snapshot as "name value" lines (histograms render as
// count/mean/sum plus interpolated p50/p95/p99).
func (s TextSink) Emit(snap Snapshot) error {
	for _, name := range snap.Names() {
		var err error
		switch {
		case hasKey(snap.Counters, name):
			_, err = fmt.Fprintf(s.W, "%-44s %d\n", name, snap.Counters[name])
		case hasKeyF(snap.Gauges, name):
			_, err = fmt.Fprintf(s.W, "%-44s %g\n", name, snap.Gauges[name])
		default:
			h := snap.Histograms[name]
			_, err = fmt.Fprintf(s.W, "%-44s count=%d mean=%.3g sum=%.3g p50=%.3g p95=%.3g p99=%.3g\n",
				name, h.Count, h.Mean(), h.Sum, h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func hasKey(m map[string]int64, k string) bool    { _, ok := m[k]; return ok }
func hasKeyF(m map[string]float64, k string) bool { _, ok := m[k]; return ok }

// expvarOnce guards expvar.Publish, which panics on duplicate names: the
// same registry name may be published once per process.
var expvarOnce sync.Map

// PublishExpvar exposes a registry as a live expvar variable: every read
// of /debug/vars re-snapshots it, so watchers always see current values.
// Publishing the same name twice is a no-op (expvar forbids duplicates).
func PublishExpvar(name string, reg *Registry) {
	if _, loaded := expvarOnce.LoadOrStore(name, true); loaded {
		return
	}
	expvar.Publish(name, expvar.Func(func() interface{} { return reg.Snapshot() }))
}
