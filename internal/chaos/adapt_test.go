package chaos

import (
	"testing"

	"hnp/internal/adapt"
	"hnp/internal/iflow"
	"hnp/internal/query"
)

// TestAdaptControllerBeatsBaselines is the closed-loop controller's
// headline validation: on pinned rate-shift seeds, the gated controller
// must strictly beat BOTH baselines — never-migrate and always-remigrate —
// on total bytes moved over links (transport plus migration state
// shipping), while migrating at least once (the win must not be vacuous)
// and never oscillating (no A→B→A plan sequence on any query). All three
// policies replay byte-identical event schedules from the shared seed, so
// the comparison isolates exactly the migration decision. Every invariant
// (load ledger included) is audited after every event inside Run.
func TestAdaptControllerBeatsBaselines(t *testing.T) {
	seeds := []int64{3, 6, 8, 9}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		out, err := CompareAdaptPolicies(RateShiftConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		never, always, ctl := out[0], out[1], out[2]
		if never.Mode != adapt.ModeNever || always.Mode != adapt.ModeAlways || ctl.Mode != adapt.ModeController {
			t.Fatalf("seed %d: outcomes out of order: %v %v %v", seed, never.Mode, always.Mode, ctl.Mode)
		}
		if never.Report.Adapt.Migrations != 0 {
			t.Errorf("seed %d: never-migrate baseline migrated %d times", seed, never.Report.Adapt.Migrations)
		}
		if ctl.Report.Adapt.Migrations == 0 {
			t.Errorf("seed %d: controller never migrated — the win would be vacuous", seed)
		}
		if ctl.Report.Oscillations != 0 {
			t.Errorf("seed %d: controller oscillated %d times", seed, ctl.Report.Oscillations)
		}
		if !(ctl.Bytes() < never.Bytes()) {
			t.Errorf("seed %d: controller %.0f bytes does not strictly beat never-migrate %.0f",
				seed, ctl.Bytes(), never.Bytes())
		}
		if !(ctl.Bytes() < always.Bytes()) {
			t.Errorf("seed %d: controller %.0f bytes does not strictly beat always-remigrate %.0f",
				seed, ctl.Bytes(), always.Bytes())
		}
	}
}

// TestAdaptAntiOscillationPin pins one rate-shift seed exactly: the
// controller's migration count, total bytes, and zero-oscillation property
// are asserted to the digit. Any change to the gate chain, the marginal
// byte estimator, the calibration windows, or the schedule generator that
// alters this run's decisions shows up here as a diff to investigate, not
// as silent drift.
func TestAdaptAntiOscillationPin(t *testing.T) {
	cfg := RateShiftConfig(3)
	a := *cfg.Adapt
	a.Mode = adapt.ModeController
	cfg.Adapt = &a
	w, err := New(cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rep, err := w.Run()
	if err != nil {
		t.Fatalf("%v\ntrace:\n%s", err, rep.TraceString())
	}
	if rep.Oscillations != 0 {
		t.Errorf("oscillations = %d, want 0", rep.Oscillations)
	}
	if got, want := rep.Adapt.Migrations, 8; got != want {
		t.Errorf("migrations = %d, want exactly %d", got, want)
	}
	if got, want := rep.Stats.TotalBytes, 15939700.0; got != want {
		t.Errorf("TotalBytes = %.0f, want exactly %.0f", got, want)
	}
}

// TestAdaptRateShiftDeterministic replays one controller-driven rate-shift
// seed twice: the control loop (windowed measurement, calibration,
// migration decisions) must be fully deterministic — identical traces,
// transport statistics, controller decisions and deliveries — or a failing
// seed would not reproduce.
func TestAdaptRateShiftDeterministic(t *testing.T) {
	run := func() Report {
		cfg := RateShiftConfig(9)
		a := *cfg.Adapt
		a.Mode = adapt.ModeController
		cfg.Adapt = &a
		w, err := New(cfg)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		rep, err := w.Run()
		if err != nil {
			t.Fatalf("%v\ntrace:\n%s", err, rep.TraceString())
		}
		return rep
	}
	a, b := run(), run()
	if a.TraceString() != b.TraceString() {
		t.Fatalf("same seed, different traces:\n--- first\n%s\n--- second\n%s", a.TraceString(), b.TraceString())
	}
	if a.Stats != b.Stats {
		t.Fatalf("same seed, different stats: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Adapt != b.Adapt {
		t.Fatalf("same seed, different controller decisions: %+v vs %+v", a.Adapt, b.Adapt)
	}
	if a.Delivered != b.Delivered {
		t.Fatalf("same seed, different deliveries: %d vs %d", a.Delivered, b.Delivered)
	}
}

// TestAdaptFlipCountMatchesPlanHistory holds the controller's flip count
// to the rule the harness used to keep itself, verbatim: each query's
// history starts with its deployed plan, every controller migration
// appends the fresh plan's rendering, and a flip is a history whose last
// plan equals the one two back and differs from the one before it. All
// three modes must agree on every seed; the Always mode, which has no
// revert gate, flips on each of them, so the counts compared are not all
// zero.
func TestAdaptFlipCountMatchesPlanHistory(t *testing.T) {
	last := int64(30)
	if testing.Short() {
		last = 4
	}
	modes := []adapt.Mode{adapt.ModeNever, adapt.ModeAlways, adapt.ModeController}
	for seed := int64(1); seed <= last; seed++ {
		for _, m := range modes {
			cfg := RateShiftConfig(seed)
			a := *cfg.Adapt
			a.Mode = m
			cfg.Adapt = &a
			w, err := New(cfg)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			hist := map[int][]string{}
			flips := 0
			// Run deploys the pool and attaches the controller before the
			// clock first moves, so this runs after both and before the
			// first control step.
			w.eng.RT.Sim.Schedule(0, func() {
				for _, qid := range w.eng.RT.DeployedQueries() {
					hist[qid] = []string{w.eng.RT.DeployedPlan(qid).String()}
				}
				follow := w.eng.OnMigrate
				w.eng.OnMigrate = func(q *query.Query, old, fresh *query.PlanNode, rep iflow.MigrationReport) {
					follow(q, old, fresh, rep)
					h := append(hist[q.ID], fresh.String())
					hist[q.ID] = h
					if n := len(h); n >= 3 && h[n-1] == h[n-3] && h[n-1] != h[n-2] {
						flips++
					}
				}
			})
			rep, err := w.Run()
			if err != nil {
				t.Fatalf("seed %d mode %d: %v", seed, m, err)
			}
			if len(hist) == 0 {
				t.Fatalf("seed %d mode %d: the history never started", seed, m)
			}
			if rep.Adapt.Oscillations != flips || rep.Oscillations != flips {
				t.Errorf("seed %d mode %d: controller counts %d flips (report %d), the plan history %d",
					seed, m, rep.Adapt.Oscillations, rep.Oscillations, flips)
			}
			if m == adapt.ModeAlways && flips == 0 {
				t.Errorf("seed %d: the Always mode no longer flips; the comparison checks only zeros", seed)
			}
		}
	}
}
