package chaos

import (
	"testing"
)

// TestChaos runs the full schedule across many seeds: every event is an
// adversarial perturbation and every invariant is checked after each one.
// Any violation fails with the seed and the replayable trace.
func TestChaos(t *testing.T) {
	seeds, events := 20, 200
	if testing.Short() {
		seeds, events = 6, 80
	}
	for s := 0; s < seeds; s++ {
		seed := int64(s + 1)
		cfg := DefaultConfig(seed)
		cfg.Events = events
		w, err := New(cfg)
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		rep, err := w.Run()
		if err != nil {
			t.Errorf("%v\ntrace:\n%s", err, rep.TraceString())
			continue
		}
		if rep.Events != events {
			t.Errorf("seed %d: ran %d events, want %d", seed, rep.Events, events)
		}
	}
}

// TestChaosDeterministic runs the same seed twice and demands identical
// histories: the event trace, the transport statistics, and the delivered
// totals must match to the last tuple — otherwise a failing seed would not
// reproduce.
func TestChaosDeterministic(t *testing.T) {
	run := func() Report {
		cfg := DefaultConfig(42)
		cfg.Events = 120
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
	if a.Delivered != b.Delivered {
		t.Fatalf("same seed, different deliveries: %d vs %d", a.Delivered, b.Delivered)
	}
}

// TestChaosMigration runs schedules with migration churn enabled: deployed
// queries are repeatedly re-planned and migrated diff-wise while failures,
// recoveries and cost drift keep hitting the stack. Every invariant —
// including sink-statistic monotonicity across migrations, the
// plan-bookkeeping mirror, and the zero-in-flight ledger after quiesce —
// must hold, and migrations must actually occur.
func TestChaosMigration(t *testing.T) {
	seeds, events := 12, 200
	if testing.Short() {
		seeds, events = 4, 100
	}
	migrates := 0
	for s := 0; s < seeds; s++ {
		seed := int64(s + 101)
		cfg := DefaultConfig(seed)
		cfg.Events = events
		cfg.Migrate = true
		w, err := New(cfg)
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		rep, err := w.Run()
		if err != nil {
			t.Errorf("%v\ntrace:\n%s", err, rep.TraceString())
			continue
		}
		migrates += rep.Counts["query-migrate"]
	}
	if migrates == 0 {
		t.Error("migration churn enabled but no migration was ever scheduled")
	}
}

// TestChaosMigrationDeterministic replays one migration-churn seed twice:
// migrations involve rewiring live operators, and any map-ordering leak in
// that path would show up as diverging traces or tuple counts.
func TestChaosMigrationDeterministic(t *testing.T) {
	run := func() Report {
		cfg := DefaultConfig(55)
		cfg.Events = 120
		cfg.Migrate = true
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
	if a.Delivered != b.Delivered {
		t.Fatalf("same seed, different deliveries: %d vs %d", a.Delivered, b.Delivered)
	}
}

// TestChaosLiveness guards against a harness that vacuously passes by
// never moving data: a standard run must deploy queries, transfer tuples
// across links, and deliver tuples to sinks.
func TestChaosLiveness(t *testing.T) {
	cfg := DefaultConfig(7)
	if testing.Short() {
		cfg.Events = 80
	}
	w, err := New(cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rep, err := w.Run()
	if err != nil {
		t.Fatalf("%v\ntrace:\n%s", err, rep.TraceString())
	}
	if rep.Counts["query-arrive"] == 0 {
		t.Error("no query ever arrived")
	}
	if rep.Counts["fail-node"] == 0 {
		t.Error("no node ever failed")
	}
	if rep.Stats.TuplesTransferred == 0 {
		t.Error("no tuple ever crossed a link")
	}
	if rep.Delivered == 0 {
		t.Error("no tuple was ever delivered to a sink")
	}
	if rep.Stats.TuplesInFlight != 0 {
		t.Errorf("%d tuples still in flight after quiesce", rep.Stats.TuplesInFlight)
	}
}

// TestChaosUndeployRejectsIdle holds the harness to its own precondition:
// an undeploy event for a pool query that does not run is a finding, not
// the engine's no-op for a plan-less deployment.
func TestChaosUndeployRejectsIdle(t *testing.T) {
	w, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	e := Event{Kind: KindQueryUndeploy, Query: w.pool[0].ID}
	if err := w.apply(&e); err == nil {
		t.Fatal("undeploying a query that never ran was accepted")
	}
}
