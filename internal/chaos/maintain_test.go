package chaos

import (
	"testing"

	"hnp/internal/netgraph"
)

// TestChaosLinkChurnPathsExact is the end-to-end gate for incremental
// path maintenance, checked at its cause: it drives the default drift
// profile's schedule itself and, after every link event, requires the
// world's repaired snapshot to equal a fresh all-pairs computation —
// every distance and every first hop — and the full invariant audit to
// pass (the hierarchy audit re-measures every cluster against the
// snapshot, so a scoped rebind that missed one fails there).
func TestChaosLinkChurnPathsExact(t *testing.T) {
	linkEvents := 0
	for seed := int64(1); seed <= 10; seed++ {
		cfg := DefaultConfig(seed)
		cfg.Events = 60
		w, err := New(cfg)
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		for i := 0; i < cfg.Events; i++ {
			e := w.nextEvent(i)
			err := w.apply(&e)
			w.trace = append(w.trace, e)
			if err == nil {
				err = w.check()
			}
			if err != nil {
				t.Fatalf("seed %d, event %s: %v\ntrace:\n%s", seed, e.String(), err, w.report().TraceString())
			}
			if e.Kind != KindLinkCost && e.Kind != KindLinkBurst {
				continue
			}
			linkEvents++
			fresh := w.eng.Graph.ShortestPaths(netgraph.MetricCost)
			n := netgraph.NodeID(w.eng.Graph.NumNodes())
			for a := netgraph.NodeID(0); a < n; a++ {
				for b := netgraph.NodeID(0); b < n; b++ {
					if got, want := w.eng.Hierarchy.Paths().Dist(a, b), fresh.Dist(a, b); got != want {
						t.Fatalf("seed %d, after %s: dist(%d,%d) = %v, fresh %v", seed, e.String(), a, b, got, want)
					}
					got, want := w.eng.Hierarchy.Paths().Path(a, b), fresh.Path(a, b)
					if len(got) != len(want) || (len(got) > 1 && got[1] != want[1]) {
						t.Fatalf("seed %d, after %s: path(%d,%d) = %v, fresh %v", seed, e.String(), a, b, got, want)
					}
				}
			}
		}
	}
	if linkEvents == 0 {
		t.Fatal("vacuous sweep: no link event in any schedule")
	}
}
