package chaos

import (
	"fmt"
	"testing"

	"hnp/internal/netgraph"
)

// TestChaosRetireRetractsOnlyTheRetired holds the engine's retire-time
// retraction to the registry sweep it replaced, which kept exactly the
// ads whose operator the runtime still hosted. It drives the schedule
// itself over seeds 1-10, with and without migration churn, and over one
// rate-shift world whose controller migrates on its own. After every
// event, each advertisement that stood before it and whose operator still
// runs must still stand; then the full audit runs, whose engine clause
// requires every advertisement to name a running operator on a live node.
// Together the two leave the registry the sweep would have left.
func TestChaosRetireRetractsOnlyTheRetired(t *testing.T) {
	var cfgs []Config
	for seed := int64(1); seed <= 10; seed++ {
		for _, migrate := range []bool{false, true} {
			cfg := DefaultConfig(seed)
			cfg.Migrate = migrate
			cfgs = append(cfgs, cfg)
		}
	}
	cfgs = append(cfgs, RateShiftConfig(7))
	type site struct {
		sig  string
		node netgraph.NodeID
	}
	kept, retracted := 0, 0
	for _, cfg := range cfgs {
		name := fmt.Sprintf("seed %d migrate=%v profile=%q", cfg.Seed, cfg.Migrate, cfg.Profile)
		w, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		if cfg.Profile == ProfileRateShift {
			if err := w.startRateShift(); err != nil {
				t.Fatalf("%s: rate-shift setup: %v", name, err)
			}
		}
		for i := 0; i < cfg.Events; i++ {
			before := w.eng.Registry.All()
			e := w.nextEvent(i)
			err := w.apply(&e)
			w.trace = append(w.trace, e)
			if err != nil {
				t.Fatalf("%s, event %s: %v", name, e.String(), err)
			}
			after := map[site]bool{}
			for _, ad := range w.eng.Registry.All() {
				after[site{ad.Sig, ad.Node}] = true
			}
			for _, ad := range before {
				switch running := w.eng.RT.Operator(ad.Sig, ad.Node) != nil; {
				case running && !after[site{ad.Sig, ad.Node}]:
					t.Fatalf("%s, event %s: advertisement %s@%d retracted while its operator runs", name, e.String(), ad.Sig, ad.Node)
				case running:
					kept++
				default:
					retracted++
				}
			}
			if err := w.check(); err != nil {
				t.Fatalf("%s, after event %s: %v\ntrace:\n%s", name, e.String(), err, w.report().TraceString())
			}
		}
	}
	if kept == 0 || retracted == 0 {
		t.Fatalf("vacuous sweep: %d advertisements kept across events, %d retired with their operator", kept, retracted)
	}
	t.Logf("%d advertisements kept across events, %d retired with their operator", kept, retracted)
}
