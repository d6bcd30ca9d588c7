package chaos

import (
	"bytes"
	"strings"
	"testing"

	"hnp/internal/adapt"
	"hnp/internal/obs"
)

// TestFlightCausalChainReconstruction is the flight recorder's acceptance
// test: a controller-driven rate-shift run is dumped as JSONL, parsed
// back, and for every adapted query the full causal chain is rebuilt by
// walking parent IDs — migration_applied ← gate decisions (all passing,
// drift first) ← the calibration_window measurement that started the
// control step. Any break in the parent links, any cross-query mixup, or
// any gate emitted out of order fails here.
func TestFlightCausalChainReconstruction(t *testing.T) {
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
	if rep.Adapt.Migrations == 0 {
		t.Fatal("seed 3 no longer migrates; pick another pinned seed")
	}

	var buf bytes.Buffer
	if err := w.Tracer().WriteJSONL(&buf); err != nil {
		t.Fatalf("dump: %v", err)
	}
	events, err := obs.ParseJSONL(&buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	byID := map[uint64]obs.Event{}
	for _, e := range events {
		byID[e.ID] = e
	}

	chains := 0
	for _, e := range events {
		if e.Kind != obs.KindMigrationApplied || e.Query < 0 {
			continue
		}
		qid := e.Query
		trace := obs.QueryTrace(qid)
		if e.Trace != trace {
			t.Fatalf("migration #%d: trace %d, want %d for query %d", e.ID, e.Trace, trace, qid)
		}
		// Walk the parent links back to the measurement root.
		var gates []string
		cur := e
		for cur.Parent != 0 {
			p, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("event #%d names parent #%d which is not in the dump", cur.ID, cur.Parent)
			}
			if p.ID >= cur.ID {
				t.Fatalf("parent #%d does not precede child #%d", p.ID, cur.ID)
			}
			if p.Query != qid || p.Trace != trace {
				t.Fatalf("causal chain of query %d crossed into query %d (event #%d)", qid, p.Query, p.ID)
			}
			switch p.Kind {
			case obs.KindGateDecision:
				if !p.Pass {
					t.Fatalf("migration #%d descends from a suppressing gate %q (#%d)", e.ID, p.Gate, p.ID)
				}
				gates = append(gates, p.Gate)
			case obs.KindCalibrationWindow:
				if p.Parent != 0 {
					t.Fatalf("calibration window #%d is not a root (parent #%d)", p.ID, p.Parent)
				}
			default:
				t.Fatalf("unexpected kind %v in causal chain of migration #%d", p.Kind, e.ID)
			}
			cur = p
		}
		if cur.Kind != obs.KindCalibrationWindow {
			t.Fatalf("migration #%d chain ends at %v, want calibration_window", e.ID, cur.Kind)
		}
		if len(gates) == 0 {
			t.Fatalf("migration #%d has no gate decisions between it and the measurement", e.ID)
		}
		// Gates were collected child-to-parent, so drift is last.
		if gates[len(gates)-1] != "drift" {
			t.Fatalf("migration #%d: first gate is %q, want drift (gates child-to-parent: %v)",
				e.ID, gates[len(gates)-1], gates)
		}
		chains++
	}
	if chains != rep.Adapt.Migrations {
		t.Fatalf("reconstructed %d causal chains, controller reports %d migrations", chains, rep.Adapt.Migrations)
	}
}

// TestFlightDumpOnForcedViolation exercises the violation-to-forensics
// path without a real bug: a forced audit failure must abort the run,
// and the report's flight recording must end in the failing
// invariant_checked verdict carrying the violation text.
func TestFlightDumpOnForcedViolation(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Events = 5
	w, err := New(cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	w.FailNextCheck("synthetic ledger hole")
	rep, err := w.Run()
	if err == nil {
		t.Fatal("forced violation did not fail the run")
	}
	if !strings.Contains(err.Error(), "synthetic ledger hole") {
		t.Fatalf("violation text lost: %v", err)
	}
	if len(rep.Flight) == 0 {
		t.Fatal("violated run's report carries no flight recording")
	}
	last := rep.Flight[len(rep.Flight)-1]
	if last.Kind != obs.KindInvariantChecked || last.Pass {
		t.Fatalf("flight ends in %v pass=%v, want a failing invariant_checked", last.Kind, last.Pass)
	}
	if !strings.Contains(last.Detail, "synthetic ledger hole") {
		t.Fatalf("failing verdict detail = %q, want the violation text", last.Detail)
	}
	// Dumping and re-parsing the recording preserves the verdict.
	var buf bytes.Buffer
	if err := obs.WriteEventsJSONL(&buf, rep.Flight); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rep.Flight) || back[len(back)-1] != last {
		t.Fatal("flight dump did not round-trip")
	}
}

// TestFlightRecordsPassingAudits pins the always-on property: an
// ordinary, healthy run still records one invariant_checked verdict per
// audited event, so post-mortems of later failures can see how long the
// system had been healthy.
func TestFlightRecordsPassingAudits(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Events = 10
	w, err := New(cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rep, err := w.Run()
	if err != nil {
		t.Fatalf("%v\ntrace:\n%s", err, rep.TraceString())
	}
	audits := 0
	for _, e := range rep.Flight {
		if e.Kind == obs.KindInvariantChecked {
			if !e.Pass {
				t.Fatalf("healthy run recorded a failing audit: %s", e.Detail)
			}
			audits++
		}
	}
	// One audit per event plus the post-quiesce one.
	if want := cfg.Events + 1; audits != want {
		t.Fatalf("recorded %d audits, want %d", audits, want)
	}
}
