package main

import (
	"fmt"
	"math/rand"
	"time"

	"hnp"
	"hnp/internal/adapt"
	"hnp/internal/chaos"
	"hnp/internal/core"
	"hnp/internal/hierarchy"
	"hnp/internal/iflow"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

const (
	adaptName = "adapt-rateshift"
	// adaptSeeds is how many consecutive chaos seeds one round runs.
	adaptSeeds = 5
	// adaptSetups is how many times a fixed-time run builds the round's
	// worlds before measuring, on top of the build before every run.
	adaptSetups = 25
)

// chaosSeeds returns the round's chaos seeds: the adaptSeeds consecutive
// seeds ending at seed, shifted up where that would start below 1.
func chaosSeeds(seed int64) []int64 {
	lo := seed - adaptSeeds + 1
	if lo < 1 {
		lo = 1
	}
	out := make([]int64, adaptSeeds)
	for i := range out {
		out[i] = lo + int64(i)
	}
	return out
}

// chaosOutcome is what one Run() must reproduce on every round.
type chaosOutcome struct {
	tuples, delivered        int64
	bytes                    float64
	migrations, oscillations int
	suppressed, events       int
}

// adaptRound is one pass over the seeds.
type adaptRound struct {
	wall []time.Duration // per seed
}

func (rd adaptRound) total() time.Duration {
	var t time.Duration
	for _, w := range rd.wall {
		t += w
	}
	return t
}

// adaptRun drives adapt-rateshift: each round builds a chaos world per
// seed from chaos.RateShiftConfig and runs it to the end. It is the only
// workload where the data plane (iflow on the des clock), the controller
// and the maintenance chain execute.
type adaptRun struct {
	seeds  []int64
	first  []chaosOutcome // per seed, from the first round
	setupS []float64
	rounds []adaptRound
	// worlds holds one more set of worlds, built and not run, so the heap
	// they pin can be measured around teardown. What a finished world
	// still holds (join windows grown to their peak, the event trace)
	// follows the seed's traffic and moved by a quarter between seed sets;
	// the built state does not.
	worlds []*chaos.World

	tally
	proc procStats
}

func newAdaptRun(seed int64) *adaptRun {
	return &adaptRun{seeds: chaosSeeds(seed)}
}

func (r *adaptRun) name() string { return adaptName }

func (r *adaptRun) setups() int { return adaptSetups }

func (r *adaptRun) build() ([]*chaos.World, error) {
	t0 := time.Now()
	worlds := make([]*chaos.World, len(r.seeds))
	for i, s := range r.seeds {
		w, err := chaos.New(chaos.RateShiftConfig(s))
		if err != nil {
			return nil, fmt.Errorf("chaos seed %d: %w", s, err)
		}
		worlds[i] = w
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	return worlds, nil
}

// setup builds the round's worlds and drops them: one set-up sample.
func (r *adaptRun) setup() error {
	_, err := r.build()
	return err
}

func (r *adaptRun) round() {
	// chaos runs with telemetry off, as its tests and cmd/chaos run it; the
	// switch is process-global and the serving rounds switch it on.
	hnp.DisableTelemetry()
	rd := adaptRound{wall: make([]time.Duration, len(r.seeds))}
	outcomes := make([]chaosOutcome, len(r.seeds))
	r.proc.measure(func() {
		for i := range r.seeds {
			// A full set-up before every run, not one per round: the
			// set-up samples then spread over the whole run like the
			// timings they sit beside.
			worlds, err := r.build()
			if err != nil {
				r.fail("%v", err)
				return
			}
			rd.wall[i], outcomes[i] = r.run(i, worlds[i])
		}
	})
	if r.first == nil {
		r.first = outcomes
	} else {
		for i, o := range outcomes {
			if o != r.first[i] {
				r.fail("chaos seed %d: round %d gave %+v, round 1 gave %+v", r.seeds[i], len(r.rounds)+1, o, r.first[i])
			}
		}
	}
	r.rounds = append(r.rounds, rd)
}

// run runs the i-th seed's world to the end and returns its wall time and
// what it must reproduce on every round.
func (r *adaptRun) run(i int, w *chaos.World) (time.Duration, chaosOutcome) {
	t0 := time.Now()
	rep, err := w.Run()
	wall := time.Since(t0)
	r.attempted++
	if err != nil {
		r.fail("chaos seed %d: %v", r.seeds[i], err)
	}
	o := chaosOutcome{
		tuples: rep.Stats.TuplesSent, delivered: rep.Delivered, bytes: rep.Stats.TotalBytes,
		migrations: rep.Adapt.Migrations, oscillations: rep.Oscillations,
		suppressed: rep.Adapt.Suppressed(), events: rep.Events,
	}
	// The repository's own pin (TestAdaptAntiOscillationPin).
	if r.seeds[i] == 3 && err == nil && (o.migrations != 8 || o.bytes != 15939700) {
		r.fail("chaos seed 3: %d migrations, %.0f bytes; the repository pins 8 and 15939700", o.migrations, o.bytes)
	}
	return wall, o
}

func (r *adaptRun) checkEnd() {
	var err error
	if r.worlds, err = r.build(); err != nil {
		r.fail("%v", err)
	}
}

func (r *adaptRun) result() tally { return r.tally }

func (r *adaptRun) teardown() { r.worlds = nil }

// kTuples is the simulated tuples of one round, in thousands: the
// workload's unit of work.
func (r *adaptRun) kTuples() float64 {
	var n int64
	for _, o := range r.first {
		n += o.tuples
	}
	return float64(n) / 1e3
}

// endToEnd reports the run in the common vocabulary: one operation is a
// thousand tuples handed to the simulated transport. Every round does the
// identical work seed for seed, so each seed's wall time is the median
// over the rounds before the seeds are summed.
func (r *adaptRun) endToEnd(m metrics, heapMB float64) {
	m.set("setup_s", "s", median(r.setupS), len(r.setupS))
	if len(r.rounds) == 0 || r.kTuples() == 0 {
		return
	}
	var wallUs float64
	for i := range r.seeds {
		per := make([]float64, len(r.rounds))
		for j, rd := range r.rounds {
			per[j] = us(rd.wall[i])
		}
		wallUs += median(per)
	}
	m.set("op_p50_us", "us", wallUs/r.kTuples(), len(r.rounds)*len(r.seeds))
	m.set("heap_live_mb", "MB", heapMB, 1)
}

// layers reports what the untraced rounds say about the layers under the
// chaos world, and the allocator figures over them.
func (r *adaptRun) layers(m metrics) {
	if len(r.rounds) == 0 {
		return
	}
	var sum chaosOutcome
	for _, o := range r.first {
		sum.tuples += o.tuples
		sum.delivered += o.delivered
		sum.bytes += o.bytes
		sum.migrations += o.migrations
		sum.oscillations += o.oscillations
		sum.suppressed += o.suppressed
		sum.events += o.events
	}
	runS := make([]float64, len(r.rounds))
	var wall time.Duration
	for j, rd := range r.rounds {
		runS[j] = rd.total().Seconds()
		wall += rd.total()
	}
	n := len(r.seeds)
	m.set("chaos.run_s", "s", median(runS), len(runS))
	m.set("chaos.events", "count", float64(sum.events), n)
	m.set("chaos.oscillations", "count", float64(sum.oscillations), n)
	m.set("chaos.errors", "count", float64(r.failed), r.attempted)
	m.set("adapt.migrations", "count", float64(sum.migrations), n)
	m.set("adapt.suppressed", "count", float64(sum.suppressed), n)
	m.set("iflow.tuples_sent", "count", float64(sum.tuples), n)
	m.set("iflow.bytes_total", "bytes", sum.bytes, n)
	m.set("iflow.tuples_per_s", "1/s", float64(sum.tuples)*float64(len(r.rounds))/wall.Seconds(), len(r.rounds)*n)
	m.set("iflow.wire_bytes_per_result", "bytes", mean(sum.bytes, int(sum.delivered)), int(sum.delivered))
	r.proc.report(m, r.kTuples()*float64(len(r.rounds)))
}

// fixture is the traced pass of adapt-rateshift: harness-owned objects at
// the paper's scale (128-node transit-stub, max_cs 32, one K=6 query)
// driven through the maintenance chain one public call at a time, each in
// its own span. chaos.World keeps its runtime private, so its Run() cannot
// be split by layer from outside; this loop runs the same calls in the
// order World.apply and the controller make them.
type fixture struct {
	rec          *recorder
	g            *netgraph.Graph
	paths, spare *netgraph.Paths
	h            *hierarchy.Hierarchy
	cat          *query.Catalog
	q            *query.Query
	plans        [2]*query.PlanNode
	rt           *iflow.Runtime
	ctl          *adapt.Controller
	link         netgraph.Link
	baseCost     float64

	cycles, tuples    int
	rows, full, churn int
	stepParent        int
	apspUs, buildUs   float64
	runAllocs         float64
	stepAllocs        float64
}

// fixtureCycles is the length of the traced pass at -scale 1.
const fixtureCycles = 2000

// fixtureUntil is the lifetime of the fixture's sources in virtual
// seconds: longer than any pass runs.
const fixtureUntil = 1e9

func newFixture(seed int64, rec *recorder) (*fixture, error) {
	f := &fixture{rec: rec}
	rng := rand.New(rand.NewSource(seed))
	f.g = netgraph.MustTransitStub(128, rng)
	var err error
	if f.link, f.baseCost, err = driftLink(f.g, rng); err != nil {
		return nil, err
	}
	f.apspUs = us(rec.timed("netgraph.apsp", 0, -1, func() { f.paths = f.g.ShortestPaths(netgraph.MetricCost) }))
	f.buildUs = us(rec.timed("hierarchy.build", 0, -1, func() { f.h, err = hierarchy.Build(f.g, f.paths, 32, rng) }))
	if err != nil {
		return nil, err
	}
	f.cat = query.NewCatalog(0.01)
	ids := make([]query.StreamID, 6)
	for i := range ids {
		ids[i] = f.cat.Add(fmt.Sprintf("s%d", i), 1+rng.Float64()*20, netgraph.NodeID(rng.Intn(128)))
	}
	if f.q, err = query.NewQuery(0, ids, netgraph.NodeID(rng.Intn(128))); err != nil {
		return nil, err
	}
	res, err := core.TopDown(f.h, f.cat, f.q, nil)
	if err != nil {
		return nil, err
	}
	// The second plan differs from the first by one placement, as after a
	// small re-optimization: migrating between them churns a couple of
	// operators and keeps the rest.
	moved := *res.Plan
	moved.Loc = (moved.Loc + 1) % 128
	f.plans = [2]*query.PlanNode{res.Plan, &moved}

	f.rt = iflow.New(f.g, iflow.DefaultConfig(), seed)
	rec.timed("iflow.deploy", 0, -1, func() { err = f.rt.Deploy(f.q, f.plans[0], f.cat, fixtureUntil) })
	if err != nil {
		return nil, err
	}
	acfg := adapt.DefaultConfig()
	// Measure and re-plan every step but leave migrating to the loop, so
	// each cycle pays the whole decision path and exactly one migration.
	acfg.Mode = adapt.ModeNever
	acfg.DriftThreshold = 1e-9
	f.ctl = adapt.New(f.rt, f.cat, func(q *query.Query) (*query.PlanNode, error) {
		var plan *query.PlanNode
		var err error
		f.rec.timed("core.replan", f.cycles, f.stepParent, func() {
			var res core.Result
			res, err = core.TopDown(f.h, f.cat, q, nil)
			plan = res.Plan
		})
		return plan, err
	}, acfg)
	f.ctl.Track(f.q, f.plans[0])
	return f, nil
}

// driftLink picks the link whose cost the cycles wiggle: the first one,
// from a seeded starting point, whose ±10% drift the path snapshot absorbs
// by recomputing some rows and not all — the steady state of chaos's link
// events. (A stub's only uplink moves every row; a link off every shortest
// path moves none.) The probe's mutations are reverted.
func driftLink(g *netgraph.Graph, rng *rand.Rand) (netgraph.Link, float64, error) {
	base := g.ShortestPaths(netgraph.MetricCost)
	links := g.Links()
	for i, off := 0, rng.Intn(len(links)); i < len(links); i++ {
		l := links[(off+i)%len(links)]
		cost, _ := g.LinkCost(l.A, l.B)
		partial := true
		for _, c := range []float64{0.9 * cost, 1.1 * cost} {
			if err := g.SetLinkCost(l.A, l.B, c); err != nil {
				return l, 0, err
			}
			_, st := base.RefreshFrom(g, nil)
			partial = partial && st.Mode == netgraph.RefreshIncremental && st.RowsRecomputed > 0
		}
		if err := g.SetLinkCost(l.A, l.B, cost); err != nil {
			return l, 0, err
		}
		if partial {
			return l, cost, nil
		}
	}
	return netgraph.Link{}, 0, fmt.Errorf("no link whose drift refreshes incrementally")
}

// cycle runs one turn of the maintenance chain.
func (f *fixture) cycle() error {
	f.cycles++
	id, rec := f.cycles, f.rec
	root := rec.begin("cycle", id, -1)
	before := f.rt.TuplesSent
	rec.timed("iflow.run", id, root, func() { f.rt.RunFor(2) })
	f.tuples += int(f.rt.TuplesSent - before)

	var err error
	cost := f.baseCost * (0.9 + 0.2*float64(f.cycles%2))
	rec.timed("iflow.update_link", id, root, func() { err = f.rt.UpdateLinkCost(f.link.A, f.link.B, cost) })
	if err != nil {
		return err
	}
	var next *netgraph.Paths
	var stats netgraph.RefreshStats
	rec.timed("netgraph.refresh", id, root, func() { next, stats = f.paths.RefreshFrom(f.g, f.spare) })
	f.rows += stats.RowsRecomputed
	if stats.Mode == netgraph.RefreshFull {
		f.full++
	}
	if next != f.paths {
		rec.timed("hierarchy.rebind", id, root, func() { err = f.h.RebindRows(next, stats.Rows) })
		if err != nil {
			return err
		}
		f.paths, f.spare = next, f.paths
	}
	f.stepParent = rec.begin("adapt.step", id, root)
	f.ctl.Step()
	rec.end(f.stepParent)

	target := f.plans[f.cycles%2]
	var rep iflow.MigrationReport
	rec.timed("iflow.migrate", id, root, func() { rep, err = f.rt.Migrate(f.q, target, f.cat, fixtureUntil) })
	if err != nil {
		return err
	}
	f.churn += rep.Delta()
	f.ctl.SetPlan(f.q.ID, target)
	rec.end(root)
	return nil
}

// probeAllocs measures allocations per tuple of the data plane and per
// control step, outside the timed cycles.
func (f *fixture) probeAllocs() {
	before := f.rt.TuplesSent
	mallocs := allocsOver(1, func() { f.rt.RunFor(20) })
	f.runAllocs = mean(mallocs, int(f.rt.TuplesSent-before))
	const steps = 8
	rec := f.rec
	f.rec = nil // the re-plan callback must not record, or its span appends would count
	for i := 0; i < steps; i++ {
		f.rt.RunFor(1)
		f.stepAllocs += allocsOver(1, f.ctl.Step) / steps
	}
	f.rec = rec
}

// layers turns the fixture's spans and counts into layer metrics. A
// span's time is its self time: adapt.step excludes the re-plan it called.
func (f *fixture) layers(m metrics) {
	d := f.rec.byName()
	p50 := func(metric, spanName string) {
		m.set(metric, "us", median(d[spanName]), len(d[spanName]))
	}
	m.set("iflow.run_us_per_tuple", "us", mean(sum(d["iflow.run"]), f.tuples), f.tuples)
	m.set("iflow.allocs_per_tuple", "count", f.runAllocs, 1)
	p50("iflow.deploy_us_p50", "iflow.deploy")
	p50("iflow.migrate_us_p50", "iflow.migrate")
	m.set("iflow.migrate_ops_churned", "count", mean(float64(f.churn), f.cycles), f.cycles)
	p50("netgraph.refresh_us_p50", "netgraph.refresh")
	m.set("netgraph.refresh_rows_mean", "count", mean(float64(f.rows), f.cycles), f.cycles)
	m.set("netgraph.refresh_full_frac", "fraction", mean(float64(f.full), f.cycles), f.cycles)
	m.set("netgraph.apsp_us", "us", f.apspUs, 1)
	p50("hierarchy.rebind_us_p50", "hierarchy.rebind")
	m.set("hierarchy.build_us", "us", f.buildUs, 1)
	p50("adapt.step_us_p50", "adapt.step")
	m.set("adapt.step_allocs", "count", f.stepAllocs, 8)
	p50("core.replan_us_p50", "core.replan")
	m.set("trace.spans", "count", float64(len(f.rec.spans)), 1)
}
