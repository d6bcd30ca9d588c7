package chaos

import "testing"

// TestChaosPushdownAB sweeps schema-enabled chaos schedules with and
// without column pruning (newWorld's reference side never calls the
// rewrite pipeline), using the rate-shift profile: the whole
// pool deploys upfront and no event changes the deployed set, so the two
// modes run the same queries against the same perturbations and their
// transport totals are directly comparable. Both modes must survive the
// schedule — every invariant (including the width-bracket transport
// conservation that heterogeneous tuple sizes exercise) checked after
// every event, a clean quiesce at the end — and the pipeline must
// actually bite: with pruning, the same seeds move strictly fewer bytes
// in total, while still delivering tuples.
func TestChaosPushdownAB(t *testing.T) {
	seeds, events := 10, 30
	if testing.Short() {
		seeds, events = 3, 12
	}
	run := func(seed int64, enabled bool) Report {
		cfg := DefaultConfig(seed)
		cfg.Profile = ProfileRateShift
		cfg.Events = events
		cfg.MeanStep = 3.0
		cfg.Schemas = true
		w, err := newWorld(cfg, enabled)
		if err != nil {
			t.Fatalf("seed %d (pushdown=%v): build: %v", seed, enabled, err)
		}
		rep, err := w.Run()
		if err != nil {
			t.Fatalf("seed %d (pushdown=%v): %v\ntrace:\n%s", seed, enabled, err, rep.TraceString())
		}
		return rep
	}
	var onBytes, offBytes float64
	var onDelivered, offDelivered int64
	for s := 0; s < seeds; s++ {
		seed := int64(s + 1)
		on := run(seed, true)
		off := run(seed, false)
		if on.Deployed != off.Deployed {
			t.Errorf("seed %d: pushdown changed the deployed set: %d vs %d queries", seed, on.Deployed, off.Deployed)
		}
		onBytes += on.Stats.TotalBytes
		offBytes += off.Stats.TotalBytes
		onDelivered += on.Delivered
		offDelivered += off.Delivered
	}
	if onBytes >= offBytes {
		t.Errorf("pushdown on moved %.0f bytes, off moved %.0f — pruning never bit", onBytes, offBytes)
	}
	if onDelivered == 0 || offDelivered == 0 {
		t.Fatalf("vacuous sweep: delivered on=%d off=%d", onDelivered, offDelivered)
	}
	t.Logf("pushdown A/B over %d seeds: bytes %.3g (on) vs %.3g (off), %.1f%% saved; delivered %d vs %d",
		seeds, onBytes, offBytes, 100*(1-onBytes/offBytes), onDelivered, offDelivered)
}

// TestChaosSchemasFaults runs the default fault/churn schedule — node
// failures, recoveries, arrivals, teardowns, migrations — with schemas
// attached, with and without pruning. No byte comparison here (failures
// hit different placements in each mode, so the surviving query sets
// diverge); the point is that every invariant holds under faults while
// operators run at heterogeneous widths.
func TestChaosSchemasFaults(t *testing.T) {
	seeds, events := 6, 150
	if testing.Short() {
		seeds, events = 2, 60
	}
	for _, enabled := range []bool{true, false} {
		for s := 0; s < seeds; s++ {
			seed := int64(s + 1)
			cfg := DefaultConfig(seed)
			cfg.Events = events
			cfg.Migrate = true
			cfg.Schemas = true
			w, err := newWorld(cfg, enabled)
			if err != nil {
				t.Fatalf("seed %d (pushdown=%v): build: %v", seed, enabled, err)
			}
			if rep, err := w.Run(); err != nil {
				t.Errorf("seed %d (pushdown=%v): %v\ntrace:\n%s", seed, enabled, err, rep.TraceString())
			}
		}
	}
}

// TestChaosSchemasDeterministic replays one schema-enabled seed twice:
// width stamping and pruning must not introduce any map-ordering or
// pointer-identity leak into the schedule or the tuple flow.
func TestChaosSchemasDeterministic(t *testing.T) {
	run := func() Report {
		cfg := DefaultConfig(33)
		cfg.Events = 100
		cfg.Schemas = true
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
