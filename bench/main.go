// Command bench is the repository's benchmark: four steady-state
// workloads over the serving path (smqd in-process, over loopback HTTP) and
// the adaptive runtime (chaos rate-shift worlds), end-to-end metrics with
// tracing off, and a separate traced pass that times each layer from
// outside through its public functions. See README.md beside this file.
//
// Two ways to run it:
//
//	bash bench/run.sh -seed 7            # every workload, fixed counts, both passes
//	bash bench/run.sh -seed 7 -aa        # the untraced set twice, checked against the bounds
//	bash bench/run.sh --workload serve-hot --seed 7 --seconds 12 --trace 0
//
// The last form is the one BENCHMARK.json names: one workload, measured
// for a fixed time, one JSON object on the last line of standard output.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricSpec is one metric of the contract in BENCHMARK.json; the two
// lists below are checked against that file by the tests.
type metricSpec struct {
	name, unit string
	// better and bound are set for end-to-end metrics only.
	better string
	bound  float64
}

// endToEndSpecs are the gated metrics. Every workload reports every one:
// an operation is one deploy+undeploy pair on the serving workloads and a
// thousand simulated tuples on adapt-rateshift.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.25},
}

// layerSpecs are the per-layer metrics of the traced run, layer = package
// name. A workload that never enters a layer reports 0 for it.
var layerSpecs = []metricSpec{
	{name: "serve.deploy_us_p50", unit: "us"},
	{name: "serve.deploy_us_p90", unit: "us"},
	{name: "serve.deploy_us_p99", unit: "us"},
	{name: "serve.undeploy_us_p50", unit: "us"},
	{name: "serve.undeploy_us_p99", unit: "us"},
	{name: "serve.plan_us_p50", unit: "us"},
	{name: "serve.overhead_us_p50", unit: "us"},
	{name: "serve.requests_per_s", unit: "1/s"},
	{name: "serve.rejected", unit: "count"},
	{name: "serve.errors", unit: "count"},
	{name: "serve.outstanding", unit: "count"},
	{name: "serve.req_bytes_mean", unit: "bytes"},
	{name: "serve.resp_bytes_mean", unit: "bytes"},
	{name: "serve.plan_unattributed_frac", unit: "fraction"},
	{name: "serve.twin_mismatches", unit: "count"},
	{name: "cql.parse_us_p50", unit: "us"},
	{name: "cql.parse_allocs", unit: "count"},
	{name: "rewrite.apply_us_p50", unit: "us"},
	{name: "rewrite.apply_allocs", unit: "count"},
	{name: "rewrite.rules_per_stmt", unit: "count"},
	{name: "core.plan_us_p50", unit: "us"},
	{name: "core.plan_allocs", unit: "count"},
	{name: "core.plans_considered_mean", unit: "count"},
	{name: "core.levels_mean", unit: "count"},
	{name: "core.plan_cost_mean", unit: "cost"},
	{name: "core.replan_us_p50", unit: "us"},
	{name: "ads.advertise_us_p50", unit: "us"},
	{name: "ads.prune_us_p50", unit: "us"},
	{name: "ads.registry_len", unit: "count"},
	{name: "ads.reused_leaf_frac", unit: "fraction"},
	{name: "ads.reuse_deploy_frac", unit: "fraction"},
	{name: "load.ledger_us_p50", unit: "us"},
	{name: "iflow.run_us_per_tuple", unit: "us"},
	{name: "iflow.allocs_per_tuple", unit: "count"},
	{name: "iflow.tuples_sent", unit: "count"},
	{name: "iflow.bytes_total", unit: "bytes"},
	{name: "iflow.tuples_per_s", unit: "1/s"},
	{name: "iflow.wire_bytes_per_result", unit: "bytes"},
	{name: "iflow.deploy_us_p50", unit: "us"},
	{name: "iflow.migrate_us_p50", unit: "us"},
	{name: "iflow.migrate_ops_churned", unit: "count"},
	{name: "netgraph.refresh_us_p50", unit: "us"},
	{name: "netgraph.refresh_rows_mean", unit: "count"},
	{name: "netgraph.refresh_full_frac", unit: "fraction"},
	{name: "netgraph.apsp_us", unit: "us"},
	{name: "hierarchy.rebind_us_p50", unit: "us"},
	{name: "hierarchy.build_us", unit: "us"},
	{name: "adapt.step_us_p50", unit: "us"},
	{name: "adapt.step_allocs", unit: "count"},
	{name: "adapt.migrations", unit: "count"},
	{name: "adapt.suppressed", unit: "count"},
	{name: "chaos.run_s", unit: "s"},
	{name: "chaos.events", unit: "count"},
	{name: "chaos.oscillations", unit: "count"},
	{name: "chaos.errors", unit: "count"},
	{name: "proc.allocs_per_op", unit: "count"},
	{name: "proc.bytes_per_op", unit: "bytes"},
	{name: "proc.gc_cycles", unit: "count"},
	{name: "proc.gc_pause_ms", unit: "ms"},
	{name: "proc.gomaxprocs", unit: "count"},
	{name: "proc.numcpu", unit: "count"},
	{name: "trace.overhead_frac", unit: "fraction"},
	{name: "trace.spans", unit: "count"},
}

// exactLayers are the layer metrics that depend on the inputs alone, so
// two runs of one seed must agree on them to the last digit: the paper's
// objective as the planner and the wire see it.
var exactLayers = []string{"core.plan_cost_mean", "iflow.wire_bytes_per_result", "iflow.tuples_sent", "adapt.migrations"}

var workloadNames = []string{"serve-hot", "serve-cold", "serve-standing", adaptName}

// rounds is how many rounds a fixed-count run cuts each workload into.
const rounds = 5

// runner is one workload's untraced run.
type runner interface {
	name() string
	// setup builds the system under test up to its working set and adds
	// one set-up sample. The first call builds what the rounds run
	// against; a later call builds a second copy and discards it.
	setup() error
	// setups is how many times a fixed-time run sets up, to report the
	// median.
	setups() int
	// round measures one round.
	round()
	// checkEnd applies the end-of-run gates.
	checkEnd()
	// teardown releases everything setup and round built.
	teardown()
	endToEnd(m metrics, heapMB float64)
	layers(m metrics)
	result() tally
}

type options struct {
	seed     int64
	scale    float64
	seconds  float64
	traceOut string
}

// scaled applies -scale to a count, keeping at least min.
func (o options) scaled(n, min int) int {
	s := int(math.Round(float64(n) * o.scale))
	if s < min {
		s = min
	}
	return s
}

// newRunner builds the untraced runner of a workload. A fixed-time run
// (seconds > 0) uses the workload's short rounds; a fixed-count run cuts
// the workload's count into `rounds` rounds.
func newRunner(name string, o options) (runner, *sequence, error) {
	if name == adaptName {
		return newAdaptRun(o.seed), nil, nil
	}
	spec, ok := findSpec(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	pairs := o.scaled(spec.pairs, rounds)
	roundSize := pairs / rounds
	if o.seconds > 0 {
		roundSize = spec.roundPairs
	}
	seq, err := genSequence(spec, o.seed, pairs)
	if err != nil {
		return nil, nil, err
	}
	return newServingRun(spec, seq, roundSize, nil), seq, nil
}

// finish gates a run, measures the heap its state pinned as the drop in
// live bytes across teardown, and reports its end-to-end metrics.
func finish(r runner, m metrics) {
	r.checkEnd()
	before := heapLive()
	r.teardown()
	after := heapLive()
	heapMB := 0.0
	if before > after {
		heapMB = float64(before-after) / 1e6
	}
	r.endToEnd(m, heapMB)
}

// tracedPass runs the traced pass of one workload for at most `limit`
// (0 = the workload's traced count at -scale) and adds its layer metrics
// to m, which already holds the workload's untraced layer metrics.
func tracedPass(name string, o options, seq *sequence, limit time.Duration, m metrics) (tally, *recorder, error) {
	rec := newRecorder()
	deadline := time.Now().Add(limit)
	expired := func() bool { return limit > 0 && time.Now().After(deadline) }
	var t tally
	if name == adaptName {
		f, err := newFixture(o.seed, rec)
		if err != nil {
			return t, rec, err
		}
		for n := o.scaled(fixtureCycles, 8); t.attempted < n && !expired(); {
			t.attempted++
			if err := f.cycle(); err != nil {
				t.fail("fixture cycle %d: %v", t.attempted, err)
				return t, rec, nil
			}
		}
		f.probeAllocs()
		f.layers(m)
		return t, rec, nil
	}
	spec, _ := findSpec(name)
	pairs := o.scaled(spec.tracedPairs, rounds)
	// Short rounds, so the time limit is looked at often enough.
	r := newServingRun(spec, seq, min(pairs, 50), rec)
	if err := r.setup(); err != nil {
		return t, rec, err
	}
	for r.measuredPairs() < pairs && !expired() {
		r.round()
	}
	r.checkEnd()
	r.tracedLayers(m)
	r.teardown()
	return r.result(), rec, nil
}

func procInfo(m metrics) {
	m.set("proc.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)), 1)
	m.set("proc.numcpu", "count", float64(runtime.NumCPU()), 1)
}

// result is the JSON object a fixed-time run prints last.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]wireValue `json:"metrics"`
}

type wireValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wire keeps exactly the metrics of specs, in the contract's shape; a
// metric the workload did not produce reads 0.
func wire(m metrics, specs []metricSpec) map[string]wireValue {
	out := make(map[string]wireValue, len(specs))
	for _, s := range specs {
		out[s.name] = wireValue{Value: m[s.name].Value, Unit: s.unit}
	}
	return out
}

// printMetrics lists the metrics of specs that m holds, by name, with unit
// and sample count.
func printMetrics(w *bufio.Writer, m metrics, specs []metricSpec) {
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "    %-30s %16.6g %-9s n=%d\n", s.name, v.Value, v.Unit, v.N)
	}
}

// printInput identifies a serving workload's generated input (adapt-rateshift
// has no sequence: its input is the chaos seeds).
func printInput(w *bufio.Writer, seq *sequence) {
	if seq != nil {
		fmt.Fprintf(w, "  input: %d deploys, W=%d, hash %016x\n", len(seq.reqs), seq.w, seq.hash)
	}
}

func printProblems(w *bufio.Writer, problems []string) {
	for _, p := range problems {
		fmt.Fprintf(w, "    FAILED: %s\n", p)
	}
}

func header(w *bufio.Writer, o options, mode string) {
	fmt.Fprintf(w, "hnp bench: %s seed=%d scale=%g %s GOMAXPROCS=%d NumCPU=%d\n",
		mode, o.seed, o.scale, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// runTimed is the contract run: one workload, measured for o.seconds.
// With trace off it sets up several times and reports the end-to-end
// metrics; with trace on it halves the time between an untraced window
// and the traced pass and reports the layer metrics.
func runTimed(w *bufio.Writer, name string, o options, trace bool) (bool, error) {
	header(w, o, "workload="+name)
	r, seq, err := newRunner(name, o)
	if err != nil {
		return false, err
	}
	printInput(w, seq)
	setups, budget := r.setups(), time.Duration(o.seconds*float64(time.Second))
	if trace {
		setups, budget = 1, budget/2
	}
	if err := r.setup(); err != nil {
		return false, err
	}
	// The remaining set-ups are spread through the measurement, so that
	// their median sees the same stretches of the machine the timings do;
	// only the rounds count against the time to measure.
	var measured time.Duration
	for done := 1; measured < budget; {
		t0 := time.Now()
		r.round()
		measured += time.Since(t0)
		for ; done < setups && measured >= budget*time.Duration(done)/time.Duration(setups); done++ {
			if err := r.setup(); err != nil {
				return false, err
			}
		}
	}
	m := metrics{}
	finish(r, m)
	t := r.result()
	specs := endToEndSpecs
	if trace {
		specs = layerSpecs
		r.layers(m)
		procInfo(m)
		traced, rec, err := tracedPass(name, o, seq, budget, m)
		if err != nil {
			return false, err
		}
		t.add(traced)
		if o.traceOut != "" {
			if err := writeSpans(o.traceOut, map[string]*recorder{name: rec}); err != nil {
				return false, err
			}
		}
	}
	printMetrics(w, m, specs)
	printProblems(w, t.problems)
	res := result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: wire(m, specs)}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct, nil
}

// report is one fixed-count untraced run of every workload.
type report struct {
	e2e, layer map[string]metrics
	failed     int
}

// runSets runs n independent sets of every workload in lock-step: round r
// of every workload of every set runs before round r+1 of any, so a noisy
// stretch of the machine lands on all of them alike.
func runSets(w *bufio.Writer, o options, n int) ([]report, map[string]*sequence, error) {
	sets := make([][]runner, n)
	seqs := map[string]*sequence{}
	for i := range sets {
		for _, name := range workloadNames {
			r, seq, err := newRunner(name, o)
			if err != nil {
				return nil, nil, err
			}
			if err := r.setup(); err != nil {
				return nil, nil, err
			}
			sets[i] = append(sets[i], r)
			seqs[name] = seq
		}
	}
	done := map[runner]int{}
	for round := 1; round <= rounds; round++ {
		for wi := range workloadNames {
			for i := range sets {
				r := sets[i][wi]
				r.round()
				// The remaining set-up samples, spread over the rounds as
				// a fixed-time run spreads them over its time.
				for ; done[r] < (r.setups()-1)*round/rounds; done[r]++ {
					if err := r.setup(); err != nil {
						return nil, nil, err
					}
				}
			}
		}
	}
	reports := make([]report, n)
	for i, set := range sets {
		rep := report{e2e: map[string]metrics{}, layer: map[string]metrics{}}
		for _, r := range set {
			e, l := metrics{}, metrics{}
			finish(r, e)
			r.layers(l)
			procInfo(l)
			rep.e2e[r.name()], rep.layer[r.name()] = e, l
			t := r.result()
			if t.attempted == 0 {
				t.fail("nothing attempted")
			}
			rep.failed += t.failed
			if t.failed > 0 {
				fmt.Fprintf(w, "  %s: %d of %d operations failed\n", r.name(), t.failed, t.attempted)
				printProblems(w, t.problems)
			}
		}
		reports[i] = rep
	}
	return reports, seqs, nil
}

// runAll is the one-command run: every workload with tracing off, then a
// traced pass of each.
func runAll(w *bufio.Writer, o options) (bool, error) {
	header(w, o, "all workloads")
	reports, seqs, err := runSets(w, o, 1)
	if err != nil {
		return false, err
	}
	rep := reports[0]
	failed := rep.failed
	recs := map[string]*recorder{}
	for _, name := range workloadNames {
		fmt.Fprintf(w, "== %s ==\n", name)
		printInput(w, seqs[name])
		fmt.Fprintf(w, "  end to end, tracing off\n")
		printMetrics(w, rep.e2e[name], endToEndSpecs)
		w.Flush()
		l := rep.layer[name]
		traced, rec, err := tracedPass(name, o, seqs[name], 0, l)
		if err != nil {
			return false, err
		}
		failed += traced.failed
		recs[name] = rec
		fmt.Fprintf(w, "  per layer, untraced window then traced pass\n")
		printMetrics(w, l, layerSpecs)
		printProblems(w, traced.problems)
		w.Flush()
	}
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, recs); err != nil {
			return false, err
		}
	}
	fmt.Fprintf(w, "failed operations: %d\n", failed)
	return failed == 0, nil
}

// runAA runs the untraced set twice in alternation and holds the two
// against each other: every end-to-end metric within its bound, every
// input-determined metric equal to the last digit.
func runAA(w *bufio.Writer, o options) (bool, error) {
	header(w, o, "A/A")
	reports, _, err := runSets(w, o, 2)
	if err != nil {
		return false, err
	}
	a, b := reports[0], reports[1]
	ok := a.failed == 0 && b.failed == 0
	fmt.Fprintf(w, "%-16s %-28s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "rel.diff", "bound")
	for _, name := range workloadNames {
		for _, s := range endToEndSpecs {
			va, vb := a.e2e[name][s.name].Value, b.e2e[name][s.name].Value
			diff := math.Abs(va-vb) / math.Min(va, vb)
			verdict := ""
			if !(diff <= s.bound) {
				verdict, ok = "  BREACH", false
			}
			fmt.Fprintf(w, "%-16s %-28s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", name, s.name, va, vb, 100*diff, 100*s.bound, verdict)
		}
		for _, metric := range exactLayers {
			va, okA := a.layer[name][metric]
			vb := b.layer[name][metric]
			if !okA {
				continue
			}
			verdict := ""
			if va.Value != vb.Value {
				verdict, ok = "  BREACH", false
			}
			fmt.Fprintf(w, "%-16s %-28s %14.9g %14.9g %9s %7s%s\n", name, metric, va.Value, vb.Value, "", "exact", verdict)
		}
	}
	fmt.Fprintf(w, "failed operations: A %d, B %d\n", a.failed, b.failed)
	return ok, nil
}

// writeSpans writes every recorder's spans as JSON lines, workload by
// workload.
func writeSpans(path string, recs map[string]*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	w := bufio.NewWriter(f)
	names := make([]string, 0, len(recs))
	for name := range recs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := recs[name].writeJSONL(w, name); err != nil {
			f.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}

func main() {
	var (
		o        options
		workload = flag.String("workload", "", "run one workload for -seconds and print one JSON result line (default: all workloads, fixed counts)")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of the traced pass")
		aa       = flag.Bool("aa", false, "run the untraced set twice in alternation and check the two against the bounds")
	)
	flag.Int64Var(&o.seed, "seed", 7, "seed every input is generated from")
	flag.Float64Var(&o.scale, "scale", 1, "multiplies the fixed counts of a run without -workload")
	flag.Float64Var(&o.seconds, "seconds", 20, "with -workload: how long to measure")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this file as JSON lines")
	flag.Parse()

	// One P. A closed loop has one runnable goroutine at a time, client or
	// server, so a second P adds no parallelism; on the 2-vCPU machines this
	// runs on it adds a cross-vCPU wake-up to every message and an idle P
	// spinning beside the busy one. Same seed, runs alternating: serve-cold
	// op_p50_us 557-590 us on one P, 622-825 us on two.
	runtime.GOMAXPROCS(1)

	w := bufio.NewWriter(os.Stdout)
	var ok bool
	var err error
	switch {
	case *workload != "":
		if o.seconds <= 0 || (*trace != 0 && *trace != 1) {
			err = fmt.Errorf("-workload needs -seconds > 0 and -trace 0 or 1")
			break
		}
		ok, err = runTimed(w, *workload, o, *trace == 1)
	case *aa:
		o.seconds = 0
		ok, err = runAA(w, o)
	default:
		o.seconds = 0
		ok, err = runAll(w, o)
	}
	w.Flush()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}
