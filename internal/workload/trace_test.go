package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"hnp/internal/cql"
	"hnp/internal/query"
)

// traceNames builds a catalog spec and returns its stream names, the way
// the serving layer does.
func traceNames(t *testing.T, streams, n int, seed int64) ([]string, *query.Catalog) {
	t.Helper()
	cfg := Default(streams, 0)
	specs, sels, err := CatalogSpec(cfg, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	cat := query.NewCatalog((selLo + selHi) / 2)
	ids := make([]query.StreamID, len(specs))
	names := make([]string, len(specs))
	for i, sp := range specs {
		ids[i] = cat.Add(sp.Name, sp.Rate, sp.Source)
		names[i] = sp.Name
	}
	for _, s := range sels {
		cat.SetSelectivity(ids[s.I], ids[s.J], s.Sel)
	}
	return names, cat
}

// TestTraceDeterministic pins the seed contract: synthesizing the same
// trace twice gives bit-identical event sequences.
func TestTraceDeterministic(t *testing.T) {
	names, _ := traceNames(t, 16, 64, 3)
	cfg := DefaultTrace(42)
	a, err := SynthesizeTrace(cfg, names, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SynthesizeTrace(cfg, names, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different traces: %d vs %d events", len(a.Events), len(b.Events))
	}
	if len(a.Events) == 0 {
		t.Fatal("empty trace")
	}
	reseeded := cfg
	reseeded.Seed++
	c, err := SynthesizeTrace(reseeded, names, 64)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestTraceStatements feeds every synthesized deploy statement through the
// real CQL parser against the catalog the names came from: the trace
// generator must only emit statements the server can plan.
func TestTraceStatements(t *testing.T) {
	names, cat := traceNames(t, 16, 64, 3)
	tr, err := SynthesizeTrace(DefaultTrace(7), names, 64)
	if err != nil {
		t.Fatal(err)
	}
	deploys := 0
	for _, ev := range tr.Events {
		if ev.Kind != KindDeploy {
			continue
		}
		deploys++
		if _, err := cql.Parse(cat, ev.CQL); err != nil {
			t.Fatalf("unparseable synthesized statement %q: %v", ev.CQL, err)
		}
		if ev.Sink < 0 || ev.Sink >= 64 {
			t.Fatalf("sink %d out of range", ev.Sink)
		}
	}
	if deploys == 0 {
		t.Fatal("trace has no deploys")
	}
}

// TestTraceArrivalStats checks the empirical arrival process against the
// configured parameters: overall rate, and monotone non-decreasing
// timestamps inside the horizon.
func TestTraceArrivalStats(t *testing.T) {
	names, _ := traceNames(t, 16, 64, 3)
	cfg := DefaultTrace(11)
	cfg.Duration, cfg.Rate = 50, 200
	tr, err := SynthesizeTrace(cfg, names, 64)
	if err != nil {
		t.Fatal(err)
	}
	last := 0.0
	for _, ev := range tr.Events {
		if ev.At < last || ev.At >= cfg.Duration {
			t.Fatalf("event at %g out of order or past horizon (prev %g)", ev.At, last)
		}
		last = ev.At
	}
	if rate := float64(len(tr.Events)) / cfg.Duration; rel(rate, cfg.Rate) > 0.10 {
		t.Fatalf("arrival rate %.1f/s, configured %.1f/s", rate, cfg.Rate)
	}
}

// TestTraceMixStats checks query-mix skew, tenant multiplexing and the
// undeploy share against their analytic expectations.
func TestTraceMixStats(t *testing.T) {
	names, _ := traceNames(t, 16, 64, 3)
	cfg := DefaultTrace(13)
	cfg.Duration, cfg.Rate = 60, 150
	cfg.Templates, cfg.MixSkew = 10, 1.2
	cfg.UndeployFrac = 0.2
	tr, err := SynthesizeTrace(cfg, names, 64)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := map[int]int{}
	tenant := map[string]int{}
	deploys, undeploys := 0, 0
	for _, ev := range tr.Events {
		tenant[ev.Tenant]++
		if ev.Kind == KindUndeploy {
			undeploys++
			continue
		}
		deploys++
		tmpl[ev.Template]++
	}
	hotShare := float64(tmpl[0]) / float64(deploys)
	if want := zipfWeights(cfg.Templates, cfg.MixSkew)[0]; rel(hotShare, want) > 0.15 {
		t.Fatalf("hot-template share %.3f, want ~%.3f", hotShare, want)
	}
	tenShare := float64(tenant["tenant-0"]) / float64(len(tr.Events))
	if want := zipfWeights(tenants, tenantSkew)[0]; rel(tenShare, want) > 0.15 {
		t.Fatalf("hot-tenant share %.3f, want ~%.3f", tenShare, want)
	}
	undeployShare := float64(undeploys) / float64(len(tr.Events))
	if rel(undeployShare, cfg.UndeployFrac) > 0.15 {
		t.Fatalf("undeploy share %.3f, want ~%.3f", undeployShare, cfg.UndeployFrac)
	}
	// Undeploys never outnumber deploys at any prefix (the generator only
	// retires outstanding deployments).
	outstanding := 0
	for _, ev := range tr.Events {
		if ev.Kind == KindDeploy {
			outstanding++
		} else {
			outstanding--
		}
		if outstanding < 0 {
			t.Fatal("trace retires more deployments than it created")
		}
	}
}

func rel(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}
