package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// MetricsHandler serves a fresh JSON snapshot of src on every request —
// the standard /metrics surface (cmd/smq -debug-addr, smqd). src is
// re-invoked per request so the handler can follow a registry that is
// swapped at runtime.
func MetricsHandler(src func() Snapshot) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(src()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// FlightHandler dumps a flight recorder's ring as JSONL — the standard
// /flight surface. src is re-invoked per request.
func FlightHandler(src func() *Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := src().WriteJSONL(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// TraceHandler renders a flight recorder's causal timeline as text,
// filtered to one query's lifecycle with ?query=N — the standard /trace
// surface. src is re-invoked per request.
func TraceHandler(src func() *Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		events := src().Snapshot()
		if q := r.URL.Query().Get("query"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "trace: query must be an integer query ID", http.StatusBadRequest)
				return
			}
			events = FilterTrace(events, QueryTrace(n))
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := RenderTimeline(w, events); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}
