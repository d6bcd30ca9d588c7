package adapt_test

import (
	"reflect"
	"testing"
	"unsafe"

	"hnp/internal/adapt"
	"hnp/internal/chaos"
	"hnp/internal/engine"
	"hnp/internal/query"
)

// TestMarginalGainMatchesOracle holds marginalGain, which walks
// query.DiffIR's entries, to marginalGainOracle, which re-derived them from
// the two plans, on every candidate of rate-shift seeds 3–7 under
// ModeAlways (the drift gate is bypassed, so every tracked query is
// re-planned at every step). The gains must be equal, not close: a gate
// compares them, so a last-bit change could flip a decision. The gains of
// the candidates Step migrated must also add up, in order, to the
// controller's PredictedSavings, which ties the check to the gain Step
// itself computed.
func TestMarginalGainMatchesOracle(t *testing.T) {
	for seed := int64(3); seed <= 7; seed++ {
		cfg := chaos.RateShiftConfig(seed)
		a := *cfg.Adapt
		a.Mode = adapt.ModeAlways
		cfg.Adapt = &a
		w, err := chaos.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var candidates, priced int
		var predicted float64
		// The world creates its controller inside Run, before the first
		// control step; an event at time zero runs in between.
		unexported[*engine.Engine](w, "eng").RT.Sim.Schedule(0, func() {
			adapt.CheckGains(unexported[*adapt.Controller](w, "ctl"), func(q *query.Query, delta int, got, oracle float64) {
				candidates++
				if got != oracle {
					t.Errorf("seed %d query %d candidate %d: gain %v, oracle %v", seed, q.ID, candidates, got, oracle)
				}
				if delta > 0 {
					priced++
					predicted += got
				}
			})
		})
		rep, err := w.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if priced == 0 {
			t.Fatalf("seed %d: no candidate differed from its running plan (%d re-plans)", seed, candidates)
		}
		if rep.Adapt.Migrations != priced {
			t.Fatalf("seed %d: %d migrations for %d differing candidates", seed, rep.Adapt.Migrations, priced)
		}
		t.Logf("seed %d: %d candidates, %d priced, %d migrations", seed, candidates, priced, rep.Adapt.Migrations)
		if rep.Adapt.PredictedSavings != predicted {
			t.Errorf("seed %d: PredictedSavings %v, the checked gains add to %v", seed, rep.Adapt.PredictedSavings, predicted)
		}
	}
}

// unexported reads a chaos world's unexported field: the world keeps its
// engine and controller private, and the oracle must be installed on the
// controller between its creation and its first step.
func unexported[T any](w *chaos.World, name string) T {
	f := reflect.ValueOf(w).Elem().FieldByName(name)
	return *(*T)(unsafe.Pointer(f.UnsafeAddr()))
}
