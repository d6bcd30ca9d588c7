// Command chaos runs the seed-deterministic fault/churn harness against
// the full stack: for each seed it builds a transit-stub network, its
// clustering hierarchy, and a query workload, then drives a randomized
// adversarial schedule — node crashes and recoveries, link-cost drift,
// query arrival/teardown, stream-rate shifts — through the planners and
// the IFLOW runtime, checking every cross-stack invariant after every
// event.
//
//	$ go run ./cmd/chaos -seeds 20 -events 200
//	$ go run ./cmd/chaos -migrate -seeds 10 -events 300
//	$ go run ./cmd/chaos -seed0 42 -seeds 1 -events 500 -v
//	$ go run ./cmd/chaos -adapt -seed0 3 -seeds 1
//
// With -migrate the schedule also re-plans deployed queries and applies
// the fresh plans as diff-based migrations (iflow.Migrate): shared
// operators keep running, only changed subtrees churn, and the invariants
// additionally police sink-statistic carry-over across migrations.
//
// With -adapt each seed switches to the rate-shift profile and runs the
// closed-loop re-optimization comparison: the same event schedule is
// replayed under never-migrate, always-remigrate, and the gated
// controller, printing total bytes for each. A controller oscillation
// (A→B→A plan flap) or an invariant violation fails the run; with
// -strict the controller must also strictly beat both baselines on
// bytes, which holds on the pinned validation seeds (3, 6, 8, 9). The
// comparison runs its own fixed schedule, so -events, -migrate and -v are
// refused with -adapt (exit 2), as is -strict without it; a boolean flag
// spelled =false is accepted everywhere.
//
// A violation prints the offending seed and its full replayable event
// trace, dumps the flight recorder's causal event history (the decision
// chain behind the failure) to <flight-dir>/chaos-flight-seed<N>.jsonl,
// and exits non-zero; re-running with -seed0 <seed> -seeds 1 reproduces
// the identical run, event for event.
package main

import (
	"flag"
	"fmt"
	"os"

	"hnp/internal/chaos"
	"hnp/internal/obs"
)

// options holds the command's flags.
type options struct {
	seeds, events                   int
	seed0                           int64
	migrate, adapt, strict, verbose bool
	flightDir                       string
}

// defineFlags registers the command's flags on fs.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.IntVar(&o.seeds, "seeds", 20, "number of consecutive seeds to run")
	fs.Int64Var(&o.seed0, "seed0", 1, "first seed")
	fs.IntVar(&o.events, "events", 200, "events per run")
	fs.BoolVar(&o.migrate, "migrate", false, "add plan-migration churn: deployed queries are re-planned and diff-migrated in place")
	fs.BoolVar(&o.adapt, "adapt", false, "run the rate-shift adaptation comparison: never-migrate vs always-remigrate vs gated controller on a shared schedule")
	fs.BoolVar(&o.strict, "strict", false, "with -adapt, fail unless the controller strictly beats both baselines on total bytes")
	fs.BoolVar(&o.verbose, "v", false, "print every run's event trace")
	fs.StringVar(&o.flightDir, "flight-dir", ".", "directory for flight-recorder JSONL dumps on invariant violations")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := checkFlags(flag.CommandLine, o); err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(2)
	}

	if o.adapt {
		os.Exit(runAdapt(o.seed0, o.seeds, o.strict, o.flightDir))
	}

	failures := 0
	for i := 0; i < o.seeds; i++ {
		cfg := chaos.DefaultConfig(o.seed0 + int64(i))
		cfg.Events = o.events
		cfg.Migrate = o.migrate

		w, err := chaos.New(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: build failed: %v\n", cfg.Seed, err)
			os.Exit(2)
		}
		rep, err := w.Run()
		if err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "FAIL %v\ntrace:\n%s\n", err, rep.TraceString())
			dumpFlight(o.flightDir, cfg.Seed, rep.Flight)
			continue
		}
		fmt.Printf("seed %-4d ok  events=%d %s\n", rep.Seed, rep.Events, rep.Summary())
		if o.verbose {
			fmt.Println(rep.TraceString())
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d/%d seeds violated invariants\n", failures, o.seeds)
		os.Exit(1)
	}
}

// checkFlags refuses a flag the chosen mode would not read. The -adapt
// comparison runs chaos.RateShiftConfig's fixed schedule and prints one
// line per seed, so -events, -migrate and -v would be silently ignored;
// -strict judges that comparison and means nothing without it. A boolean
// flag given as false asks for nothing and is accepted; -events is refused
// with -adapt whatever its value.
func checkFlags(fs *flag.FlagSet, o *options) error {
	eventsSet := false
	fs.Visit(func(f *flag.Flag) { eventsSet = eventsSet || f.Name == "events" })
	switch {
	case o.adapt && eventsSet:
		return fmt.Errorf("-events has no effect with -adapt")
	case o.adapt && o.migrate:
		return fmt.Errorf("-migrate has no effect with -adapt")
	case o.adapt && o.verbose:
		return fmt.Errorf("-v has no effect with -adapt")
	case o.strict && !o.adapt:
		return fmt.Errorf("-strict needs -adapt")
	}
	return nil
}

// runAdapt replays each seed's rate-shift schedule under the three
// migration policies and reports the byte totals side by side. Returns
// the process exit code: non-zero on invariant violations, controller
// oscillation, or (with strict) a failure to beat either baseline.
func runAdapt(seed0 int64, seeds int, strict bool, flightDir string) int {
	failures := 0
	for i := 0; i < seeds; i++ {
		cfg := chaos.RateShiftConfig(seed0 + int64(i))
		out, err := chaos.CompareAdaptPolicies(cfg)
		if err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "FAIL seed %d: %v\n", cfg.Seed, err)
			// The last outcome with a flight is the run that failed.
			for j := len(out) - 1; j >= 0; j-- {
				if len(out[j].Report.Flight) > 0 {
					dumpFlight(flightDir, cfg.Seed, out[j].Report.Flight)
					break
				}
			}
			continue
		}
		never, always, ctl := out[0], out[1], out[2]
		verdict := "ok"
		switch {
		case ctl.Report.Oscillations != 0:
			verdict = "OSCILLATED"
			failures++
		case ctl.Bytes() < never.Bytes() && ctl.Bytes() < always.Bytes():
			verdict = "win"
		default:
			verdict = "no-win"
			if strict {
				failures++
			}
		}
		fmt.Printf("seed %-4d %-10s never=%.0f always=%.0f controller=%.0f migrations=%d suppressed=%d\n",
			cfg.Seed, verdict, never.Bytes(), always.Bytes(), ctl.Bytes(),
			ctl.Report.Adapt.Migrations, ctl.Report.Adapt.Suppressed())
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d/%d adapt seeds failed\n", failures, seeds)
		return 1
	}
	return 0
}

// dumpFlight writes a violated run's flight-recorder history as JSONL so
// the causal chain behind the failure survives the process (CI uploads
// these as artifacts).
func dumpFlight(dir string, seed int64, events []obs.Event) {
	if len(events) == 0 {
		return
	}
	path := fmt.Sprintf("%s/chaos-flight-seed%d.jsonl", dir, seed)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: flight dump: %v\n", err)
		return
	}
	defer f.Close()
	if err := obs.WriteEventsJSONL(f, events); err != nil {
		fmt.Fprintf(os.Stderr, "chaos: flight dump: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "flight recorder dumped to %s (%d events)\n", path, len(events))
}
