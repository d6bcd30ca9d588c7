// Command smq regenerates the paper's evaluation figures. Each figure is
// printed as an aligned text table with headline notes comparing measured
// numbers against the paper's claims.
//
// Usage:
//
//	smq -fig all                 # every figure at paper scale
//	smq -fig 7                   # one figure
//	smq -fig 5,6 -workloads 3    # reduced averaging for quick runs
//	smq -fig 9 -seed 7           # different randomness
//	smq -explain                 # annotated per-level planner search trace
//	smq -explain -trace          # + causal lifecycle timeline per query
//	smq -fig all -debug-addr :6060  # live /metrics, /flight, /trace, expvar, pprof
//
// Figures are computed concurrently (and each figure's internal sweeps
// fan out across GOMAXPROCS cores); output is bit-identical at every
// core count and always rendered in figure order. Each completed figure
// prints a one-line timing summary to stderr.
//
// -explain runs a canned two-query scenario (128-node transit-stub
// network, max_cs=32) through both hierarchical optimizers and prints
// each planning step — cluster level, coordinator, inputs joined, reuse
// candidates offered, candidates examined, local search time, chosen cost
// — then runs the chosen plan in the IFLOW runtime, shifts a stream rate
// mid-flight and applies the re-planned tree as a diff-based live
// migration (printing what it kept, churned and carried), hands the
// deployment to the closed-loop adaptation controller for the rest of
// the horizon (printing each gate decision and migration it makes),
// followed by the telemetry snapshot, and exits.
//
// -debug-addr serves expvar (/debug/vars, including the process-wide
// telemetry under "hnp"), pprof (/debug/pprof/) and a JSON telemetry
// snapshot (/metrics) while figures compute; it also turns telemetry on,
// so per-figure progress counters (exp.fig*.units_done) tick live. With
// -trace it additionally serves the flight recorder: /flight dumps the
// ring as JSONL and /trace?query=N renders one query's causal timeline.
// Figure harnesses use private registries, so the recorder is populated
// by the -explain scenario (combine -explain -trace -debug-addr; the
// server stays up after the narrative so the recording can be queried).
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hnp"
	"hnp/internal/adapt"
	"hnp/internal/cql"
	"hnp/internal/engine"
	"hnp/internal/exp"
	"hnp/internal/iflow"
	"hnp/internal/obs"
)

func main() {
	var (
		figs      = flag.String("fig", "all", "comma-separated figure ids (2,5,6,7,8,9,10,11) or 'all'")
		seed      = flag.Int64("seed", 42, "random seed")
		workloads = flag.Int("workloads", 10, "workloads averaged in figs 5-8")
		queries   = flag.Int("queries", 20, "queries per workload in figs 5-8")
		format    = flag.String("format", "table", "output format: table or csv")
		explain   = flag.Bool("explain", false, "print an annotated planner search narrative for a canned scenario and exit")
		trace     = flag.Bool("trace", false, "arm the causal flight recorder; with -explain appends per-query lifecycle timelines, with -debug-addr serves the recording at /flight and /trace")
		debugAddr = flag.String("debug-addr", "", "serve expvar, pprof, /metrics, /flight and /trace?query=N on this address (e.g. :6060) while running")
	)
	flag.Parse()

	if *trace {
		obs.Default.Tracer().Enable()
	}
	if *debugAddr != "" {
		hnp.EnableTelemetry()
		serveDebug(*debugAddr)
	}
	if *explain {
		if err := runExplain(*seed, *trace); err != nil {
			fmt.Fprintf(os.Stderr, "smq: explain: %v\n", err)
			os.Exit(1)
		}
		if *debugAddr != "" {
			// Keep serving so the recorded flight can be queried after the
			// narrative finishes: /flight and /trace?query=N now read the
			// explain scenario's registry.
			fmt.Fprintf(os.Stderr, "smq: explain done; debug surface still serving on %s (interrupt to exit)\n", *debugAddr)
			select {}
		}
		return
	}

	cfg := exp.DefaultConfig()
	cfg.Seed = *seed
	cfg.Workloads = *workloads
	cfg.Queries = *queries

	harness := map[string]func(exp.Config) (*exp.Figure, error){
		"2": exp.Fig2, "5": exp.Fig5, "6": exp.Fig6, "7": exp.Fig7,
		"8": exp.Fig8, "9": exp.Fig9, "10": exp.Fig10, "11": exp.Fig11,
	}
	order := []string{"2", "5", "6", "7", "8", "9", "10", "11"}

	var wanted []string
	if *figs == "all" {
		wanted = order
	} else {
		for _, f := range strings.Split(*figs, ",") {
			f = strings.TrimSpace(f)
			if _, ok := harness[f]; !ok {
				fmt.Fprintf(os.Stderr, "smq: unknown figure %q (known: %s, all)\n", f, strings.Join(order, ","))
				os.Exit(2)
			}
			wanted = append(wanted, f)
		}
	}

	if *format != "csv" && *format != "table" {
		fmt.Fprintf(os.Stderr, "smq: unknown format %q\n", *format)
		os.Exit(2)
	}

	// Compute every requested figure concurrently, then render in request
	// order so output is stable. Timing lines go to stderr as figures
	// finish, keeping stdout machine-parseable.
	type result struct {
		fig     *exp.Figure
		err     error
		elapsed time.Duration
	}
	results := make([]result, len(wanted))
	var wg sync.WaitGroup
	for i, id := range wanted {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			fig, err := harness[id](cfg)
			results[i] = result{fig, err, time.Since(start)}
			fmt.Fprintf(os.Stderr, "smq: figure %s computed in %s\n", id, results[i].elapsed.Round(time.Millisecond))
		}()
	}
	wg.Wait()

	for i, id := range wanted {
		if results[i].err != nil {
			fmt.Fprintf(os.Stderr, "smq: figure %s: %v\n", id, results[i].err)
			os.Exit(1)
		}
		if *format == "csv" {
			results[i].fig.RenderCSV(os.Stdout)
		} else {
			results[i].fig.Render(os.Stdout)
		}
	}
}

// traceSrc points at the registry whose flight recorder the debug
// endpoints serve: the process-wide default, switched to the explain
// scenario's private registry once -explain builds its system.
var traceSrc atomic.Pointer[obs.Registry]

func init() { traceSrc.Store(obs.Default) }

// runExplain deploys two overlapping queries on a canned 128-node system
// with both hierarchical algorithms and prints each planner's annotated
// search narrative, demonstrates a diff-based live migration after a
// mid-flight rate shift, then prints the system telemetry snapshot.
// With trace armed, it closes with the flight recorder's causal timeline
// for each query: planned → deployed → calibrated → gated → migrated.
func runExplain(seed int64, trace bool) error {
	hnp.EnableTelemetry()
	g := hnp.TransitStubNetwork(128, seed)
	sys, err := hnp.NewSystem(g, 32, seed)
	if err != nil {
		return err
	}
	if trace {
		sys.Obs.Tracer().Enable()
		traceSrc.Store(sys.Obs)
	}
	// One lifecycle engine carries the whole scenario: it plans, runs the
	// plans in the IFLOW runtime, and keeps advertisements and the load
	// ledger in step with what the runtime hosts (audited at the end).
	const horizon = 60.0
	eng := engine.NewEngine(sys, iflow.DefaultConfig(), seed, horizon)
	a := eng.AddStream("FLIGHTS", 40, 17)
	b := eng.AddStream("WEATHER", 25, 93)
	c := eng.AddStream("CHECKINS", 30, 55)
	eng.SetSelectivity(a, b, 0.01)
	eng.SetSelectivity(a, c, 0.02)
	eng.SetSelectivity(b, c, 0.005)

	// The first deployment fills the advertisement registry; the second,
	// overlapping it, shows reuse candidates inside the narrative.
	warm, err := eng.Plan([]hnp.StreamID{a, b}, 9, hnp.AlgoTopDown)
	if err != nil {
		return err
	}
	if err := eng.Deploy(warm); err != nil {
		return err
	}
	fmt.Printf("=== warm-up deploy: FLIGHTS⋈WEATHER via top-down (cost %.4g) ===\n", warm.Cost)
	warm.ExplainTo(os.Stdout)

	plans := map[hnp.Algorithm]hnp.Deployment{}
	for _, algo := range []hnp.Algorithm{hnp.AlgoTopDown, hnp.AlgoBottomUp} {
		d, err := eng.Plan([]hnp.StreamID{a, b, c}, 9, algo)
		if err != nil {
			return err
		}
		plans[algo] = d
		fmt.Printf("\n=== FLIGHTS⋈WEATHER⋈CHECKINS via %v (cost %.4g) ===\n", algo, d.Cost)
		d.ExplainTo(os.Stdout)
	}

	// Migration demo: run the top-down plan, collapse the CHECKINS rate at
	// t=30s, re-plan the running query, and apply the fresh plan as a
	// diff-based migration — operators both plans share keep running, only
	// the changed subtree churns, and the report quantifies what a full
	// teardown would have cost instead. The warm-up query runs too: the
	// 3-way plans consume its advertised FLIGHTS⋈WEATHER stream.
	td := plans[hnp.AlgoTopDown]
	if err := eng.Deploy(td); err != nil {
		return err
	}
	eng.RT.RunFor(30)
	eng.Catalog.SetRate(c, 0.5)
	fresh, err := eng.Replan(td.Query)
	if err != nil {
		return err
	}
	rep, err := eng.Migrate(td.Query.ID, fresh)
	if err != nil {
		return err
	}
	fmt.Printf("\n=== live migration at t=30s: CHECKINS collapses to 0.5 tuples/s, replan and diff ===\n")
	fmt.Printf("old: %s\nnew: %s\n%s\n", td.Plan, fresh, rep)

	// Closed-loop section: the same kind of drift, handled by the
	// adaptive controller instead of an operator at a keyboard. The
	// catalog now claims CHECKINS runs at 0.5 tuples/s while the live tap
	// still emits 30/s — exactly the observed-vs-assumed gap the
	// controller watches. It takes every deployment for the rest of the
	// horizon: each control interval it measures windowed rates,
	// recalibrates the catalog, re-plans past the drift gate, and weighs
	// the predicted marginal byte gain against migration churn before
	// touching anything.
	eng.OnMigrate = func(q *hnp.Query, old, new *hnp.PlanNode, mrep iflow.MigrationReport) {
		fmt.Printf("t=%-3.0fs controller migrated q%d: %s -> %s\n       %s\n",
			eng.RT.Sim.Now(), q.ID, old, new, mrep)
	}
	fmt.Printf("\n=== closed-loop controller takes over, t=30..%.0fs ===\n", horizon)
	ctl := eng.AttachController(adapt.DefaultConfig())
	eng.RT.RunFor(horizon - eng.RT.Sim.Now())
	st := ctl.Stats()
	fmt.Printf("checks=%d replans=%d migrations=%d suppressed=%d (deadband=%d hysteresis=%d cooldown=%d revert=%d)\n",
		st.Checks, st.Replans, st.Migrations, st.Suppressed(),
		st.SuppressedDeadband, st.SuppressedHysteresis, st.SuppressedCooldown, st.SuppressedRevert)
	fmt.Printf("predicted savings %.0f bytes/s; final plan %s\n",
		st.PredictedSavings, eng.RT.DeployedPlan(td.Query.ID))
	if err := eng.Audit(); err != nil {
		return fmt.Errorf("engine audit: %w", err)
	}
	fmt.Println("engine audit: registry, load ledger and path snapshots match what the runtime hosts")

	if err := explainRewrite(sys, a, b, c); err != nil {
		return err
	}

	if trace {
		evs := sys.Obs.Tracer().Snapshot()
		for _, qid := range []int{warm.Query.ID, td.Query.ID} {
			fmt.Printf("\n=== causal timeline: query %d ===\n", qid)
			if err := obs.RenderTimeline(os.Stdout, obs.FilterTrace(evs, obs.QueryTrace(qid))); err != nil {
				return err
			}
		}
	}

	fmt.Println("\n=== telemetry snapshot ===")
	return obs.TextSink{W: os.Stdout}.Emit(sys.Snapshot())
}

// explainRewrite narrates the logical optimizer pipeline: per-attribute
// schemas are declared for the three streams, a selective CQL statement
// is planned twice — through the pipeline, then from its parsed sources
// and predicates alone — and the per-rule audit trace plus the planned
// bytes-on-wire both ways are printed. A contradictory statement closes
// the section, folding to a no-op plan instead of shipping tuples nobody
// can match.
func explainRewrite(sys *hnp.System, a, b, c hnp.StreamID) error {
	fmt.Println("\n=== logical optimizer: schema-aware predicate/projection pushdown ===")
	sys.SetSchema(a, hnp.Schema{
		{Name: "num", Width: 8}, {Name: "status", Width: 16},
		{Name: "origin", Width: 12}, {Name: "manifest", Width: 64},
	})
	sys.SetSchema(b, hnp.Schema{
		{Name: "city", Width: 8}, {Name: "temp", Width: 8}, {Name: "radar", Width: 84},
	})
	sys.SetSchema(c, hnp.Schema{
		{Name: "flight", Width: 8}, {Name: "status", Width: 16}, {Name: "passenger", Width: 76},
	})
	const stmt = `SELECT FLIGHTS.STATUS, WEATHER.TEMP FROM FLIGHTS, WEATHER ` +
		`WHERE FLIGHTS.NUM = WEATHER.CITY AND FLIGHTS.STATUS > 0.8 AND WEATHER.TEMP BETWEEN 0 AND 1`
	fmt.Printf("statement: %s\n", stmt)

	const sink = hnp.NodeID(9)
	on, err := sys.PlanCQL(stmt, sink, hnp.AlgoTopDown)
	if err != nil {
		return err
	}
	fmt.Println("rewrite trace:\n  " + strings.ReplaceAll(on.Rewrite.TraceString(), "\n", "\n  "))
	fmt.Printf("planned source bytes: %.4g -> %.4g per unit time (%.4g saved)\n",
		on.Rewrite.BytesBefore, on.Rewrite.BytesAfter, on.Rewrite.BytesSaved())

	st, err := cql.Parse(sys.Catalog, stmt)
	if err != nil {
		return err
	}
	off, err := sys.PlanWhere(st.Sources, sink, hnp.AlgoTopDown, st.Preds)
	if err != nil {
		return err
	}
	fmt.Printf("plan (pushdown on):  %s\n     cost %.4g, %.4g planned bytes/s on wire\n",
		on.Plan, on.Cost, on.Plan.PlannedBytes(sink))
	fmt.Printf("plan (pushdown off): %s\n     cost %.4g, %.4g planned bytes/s on wire\n",
		off.Plan, off.Cost, off.Plan.PlannedBytes(sink))

	empty, err := sys.PlanCQL(`SELECT FLIGHTS.STATUS FROM FLIGHTS `+
		`WHERE FLIGHTS.STATUS < 0.2 AND FLIGHTS.STATUS > 0.7`, sink, hnp.AlgoTopDown)
	if err != nil {
		return err
	}
	if empty.Rewrite.NoOp {
		fmt.Printf("contradictory WHERE folds to a no-op: plan=%s, nothing deployed\n", empty.Plan)
	}
	return nil
}

// serveDebug exposes expvar, pprof, a JSON telemetry snapshot, and the
// flight recorder (raw JSONL at /flight, causal timelines at
// /trace?query=N) in the background for the lifetime of the process.
func serveDebug(addr string) {
	obs.PublishExpvar("hnp", obs.Default)
	http.HandleFunc("/metrics", obs.MetricsHandler(obs.Default.Snapshot))
	tracer := func() *obs.Tracer { return traceSrc.Load().Tracer() }
	http.HandleFunc("/flight", obs.FlightHandler(tracer))
	http.HandleFunc("/trace", obs.TraceHandler(tracer))
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "smq: debug server: %v\n", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "smq: debug surface on http://%s (/debug/vars, /debug/pprof/, /metrics, /flight, /trace?query=N)\n", addr)
}
