// Command smqbench is the ReqBench-style serving load harness. In its
// default in-process mode it runs the pinned serving scenarios
// (internal/serve.BenchScenarios) — each boots a sharded smqd in-process,
// replays a seed-deterministic synthesized trace (bursty arrivals,
// Zipf-skewed query mix, tenant multiplexing) through concurrent senders
// over real HTTP, and records p50/p95/p99 plan latency, deploys/sec and
// admission rejections into a benchfmt trajectory:
//
//	go run ./cmd/smqbench -o BENCH_serving.json
//	go run ./cmd/smqbench -compare BENCH_serving.json
//
// With -addr it instead drives an already-running external smqd with one
// custom trace, printing the collector's report (no trajectory file):
//
//	go run ./cmd/smqbench -addr http://127.0.0.1:8080 \
//	    -duration 30 -rate 100 -senders 8 -speedup 1
package main

import (
	"flag"
	"fmt"
	"os"

	"hnp/internal/benchfmt"
	"hnp/internal/serve"
	"hnp/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", "", "drive an external server at this base URL instead of the in-process scenarios")
		seed      = flag.Int64("seed", 7, "scenario/trace seed")
		outPath   = flag.String("o", "BENCH_serving.json", "trajectory output ('-' for stdout; in-process mode)")
		compare   = flag.String("compare", "", "baseline BENCH_serving.json to diff against; exit 3 on regression")
		threshold = flag.Float64("threshold", 0.25, "latency regression tolerance for -compare, as a fraction")

		// External-mode trace shape.
		duration = flag.Float64("duration", 10, "trace length in seconds (-addr mode)")
		rate     = flag.Float64("rate", 50, "mean arrival rate in events/sec (-addr mode)")
		senders  = flag.Int("senders", 8, "concurrent sender goroutines (-addr mode)")
		speedup  = flag.Float64("speedup", 1, "trace-time compression factor (-addr mode)")
		streams  = flag.Int("streams", 24, "catalog size the trace references (-addr mode; must match the server)")
		nodes    = flag.Int("nodes", 128, "sink range the trace draws from (-addr mode; must match the server)")
	)
	flag.Parse()

	if *addr != "" {
		tc := workload.DefaultTrace(*seed)
		tc.Duration = *duration
		tc.Rate = *rate
		names := make([]string, *streams)
		for i := range names {
			names[i] = fmt.Sprintf("stream-%d", i)
		}
		tr, err := workload.SynthesizeTrace(tc, names, *nodes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smqbench: %v\n", err)
			os.Exit(1)
		}
		rep, err := serve.RunLoad(*addr, tr, serve.LoadOptions{Senders: *senders, Speedup: *speedup})
		if err != nil {
			fmt.Fprintf(os.Stderr, "smqbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep)
		return
	}

	traj := benchfmt.New("cmd/smqbench", *seed, "trace")
	for _, sc := range serve.BenchScenarios(*seed) {
		res, rep, err := serve.RunBench(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smqbench: %s: %v\n", sc.Name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%-12s %s\n", sc.Name, rep)
		traj.Benchmarks = append(traj.Benchmarks, res)
	}
	regressions, err := benchfmt.WriteAndCompare(*outPath, traj, *compare, *threshold)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smqbench: %v\n", err)
		os.Exit(1)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "smqbench: %d scenario(s) regressed vs %s\n", regressions, *compare)
		os.Exit(3)
	}
	if *compare != "" {
		fmt.Fprintf(os.Stderr, "smqbench: no regressions vs %s\n", *compare)
	}
}
