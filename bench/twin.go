package main

import (
	"fmt"
	"math/rand"

	"hnp"
	"hnp/internal/ads"
	"hnp/internal/core"
	"hnp/internal/cql"
	"hnp/internal/load"
	"hnp/internal/query"
	"hnp/internal/query/rewrite"
	"hnp/internal/serve"
	"hnp/internal/workload"
)

// twin is the harness's own copy of the server's planning state: one
// hnp.System per shard, built exactly as serve.NewServer builds them, plus
// a load ledger each (the System's own is private). On a traced pass
// every request the server answers is replayed on the twin by calling the
// layers' public functions in System.DeployCQL's order, one span each —
// the per-layer timings — and the twin's plan and cost must equal the
// server's, or those timings describe different work.
type twin struct {
	srv      *serve.Server
	shards   []*hnp.System
	trackers []*load.Tracker

	n                          int
	rules, levels, leaves      int
	reusedLeaves, mismatches   int
	samples                    []request // a few replayed requests, for the allocation probes
	sampleShards               []int
	parseAllocs, rewriteAllocs float64
	planAllocs                 float64
}

// twinDeployment is what the twin keeps per outstanding handle.
type twinDeployment struct {
	shard, queryID int
	plan           *query.PlanNode
}

// maxSamples bounds the requests kept for the allocation probes.
const maxSamples = 256

func newTwin(cfg serve.Config, srv *serve.Server) (*twin, error) {
	t := &twin{srv: srv}
	wcfg := workload.Default(cfg.Streams, 0)
	for i := 0; i < cfg.Shards; i++ {
		g := hnp.TransitStubNetwork(cfg.Nodes, cfg.Seed)
		sys, err := hnp.NewSystem(g, cfg.MaxCS, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("twin shard %d: %w", i, err)
		}
		specs, sels, err := workload.CatalogSpec(wcfg, cfg.Nodes, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return nil, fmt.Errorf("twin shard %d: %w", i, err)
		}
		ids := make([]hnp.StreamID, len(specs))
		for j, sp := range specs {
			ids[j] = sys.AddStream(sp.Name, sp.Rate, sp.Source)
		}
		for _, sel := range sels {
			sys.SetSelectivity(ids[sel.I], ids[sel.J], sel.Sel)
		}
		if cfg.FlightRecorder {
			sys.Obs.Tracer().Enable()
		}
		t.shards = append(t.shards, sys)
		t.trackers = append(t.trackers, load.NewTracker())
	}
	return t, nil
}

// deploy replays one acknowledged deploy on the twin and checks the
// result against the server's response.
func (t *twin) deploy(rec *recorder, reqID, root int, req request, dr serve.DeployResponse) (twinDeployment, error) {
	mismatch := func(format string, args ...any) (twinDeployment, error) {
		t.mismatches++
		return twinDeployment{}, fmt.Errorf(format, args...)
	}
	si := t.srv.ShardFor(req.tenant, req.cql)
	if si != dr.Shard {
		return mismatch("twin routes to shard %d, server answered from %d", si, dr.Shard)
	}
	sys := t.shards[si]
	var (
		st  *cql.Statement
		q   *query.Query
		out rewrite.Outcome
		res core.Result
		err error
	)
	rec.timed("cql.parse", reqID, root, func() { st, err = cql.Parse(sys.Catalog, req.cql) })
	if err != nil {
		return mismatch("twin parse: %w", err)
	}
	rec.timed("cql.query", reqID, root, func() { q, err = st.Query(dr.QueryID, hnp.NodeID(req.sink)) })
	if err != nil {
		return mismatch("twin query: %w", err)
	}
	rec.timed("rewrite.apply", reqID, root, func() { out = rewrite.Apply(sys.Catalog, q, st.Pushdown()) })
	rec.timed("core.plan", reqID, root, func() {
		res, err = core.TopDownOpts(sys.Hierarchy, sys.Catalog, q, sys.Registry, core.Options{Obs: sys.Obs})
	})
	if err != nil {
		return mismatch("twin plan: %w", err)
	}
	rec.timed("ads.advertise", reqID, root, func() { sys.Registry.AdvertisePlan(q, res.Plan) })
	rec.timed("load.add", reqID, root, func() { t.trackers[si].AddPlan(res.Plan) })

	d := twinDeployment{shard: si, queryID: dr.QueryID, plan: res.Plan}
	if rec != nil {
		t.n++
		t.rules += out.RulesApplied
		t.levels += res.LevelsVisited
		for _, l := range res.Plan.Leaves() {
			t.leaves++
			if l.In.Derived {
				t.reusedLeaves++
			}
		}
		if len(t.samples) < maxSamples {
			t.samples = append(t.samples, req)
			t.sampleShards = append(t.sampleShards, si)
		}
	}
	if got := res.Plan.String(); got != dr.Plan || res.Cost != dr.Cost {
		t.mismatches++
		return d, fmt.Errorf("twin plan %s cost %v, server plan %s cost %v", got, res.Cost, dr.Plan, dr.Cost)
	}
	return d, nil
}

// undeploy retracts a deployment from the twin as System.Undeploy does and
// checks the retraction count against the server's.
func (t *twin) undeploy(rec *recorder, reqID, root int, d twinDeployment, serverRetracted int) error {
	if d.plan == nil {
		return nil // the deploy already counted as a mismatch
	}
	sys := t.shards[d.shard]
	removed := 0
	rec.timed("ads.prune", reqID, root, func() {
		removed = sys.Registry.Prune(func(ad ads.Ad) bool { return ad.QueryID != d.queryID })
	})
	rec.timed("load.remove", reqID, root, func() { t.trackers[d.shard].RemovePlan(d.plan) })
	if removed != serverRetracted {
		t.mismatches++
		return fmt.Errorf("twin retracted %d advertisements, server %d", removed, serverRetracted)
	}
	return nil
}

// registryLen is the number of advertisements standing across shards.
func (t *twin) registryLen() int {
	n := 0
	for _, sys := range t.shards {
		n += sys.Registry.Len()
	}
	return n
}

// probeAllocs measures heap allocations per call of the parse, rewrite and
// plan layers over the sampled requests, planning against the registry as
// the traced pass left it. Nothing is advertised, so the twin's state is
// unchanged. The server is idle meanwhile, so the process-wide malloc
// count is the harness's alone. Every sampled request already parsed and
// planned on this twin, so an error here is a bug and panics.
func (t *twin) probeAllocs() {
	n := len(t.samples)
	stmts := make([]*cql.Statement, n)
	qs := make([]*query.Query, n)
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("bench: allocation probe: %v", err))
		}
	}
	t.parseAllocs = allocsOver(n, func() {
		for i, req := range t.samples {
			var err error
			stmts[i], err = cql.Parse(t.shards[t.sampleShards[i]].Catalog, req.cql)
			must(err)
		}
	})
	for i, req := range t.samples {
		// Probe IDs sit far above any the pass handed out, so no
		// advertisement is taken for the probe's own.
		var err error
		qs[i], err = stmts[i].Query(1<<30+i, hnp.NodeID(req.sink))
		must(err)
	}
	t.rewriteAllocs = allocsOver(n, func() {
		for i := range qs {
			rewrite.Apply(t.shards[t.sampleShards[i]].Catalog, qs[i], stmts[i].Pushdown())
		}
	})
	t.planAllocs = allocsOver(n, func() {
		for i := range qs {
			sys := t.shards[t.sampleShards[i]]
			_, err := core.TopDownOpts(sys.Hierarchy, sys.Catalog, qs[i], sys.Registry, core.Options{Obs: sys.Obs})
			must(err)
		}
	})
}
