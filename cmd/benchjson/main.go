// Command benchjson converts `go test -bench` output into the repo's
// machine-readable benchmark trajectory (see internal/benchfmt), the
// record this and future perf PRs are tracked against. It owns no
// benchmark body: every row of BENCH_planner.json is the go-test
// benchmark of the same name in bench_test.go, measured once.
//
//	go test -run '^$' -bench "$PLANNER_BENCH" -benchmem . | go run ./cmd/benchjson -o BENCH_planner.json
//
// where PLANNER_BENCH selects the tracked entries (README, "Benchmark
// trajectory"). The input is stdin or the file named as the only
// argument; it is echoed to stderr so a piped run stays visible. A FAIL
// line or a result line that does not parse aborts with exit 1 and writes
// nothing.
//
// With -compare the fresh run is diffed against a committed baseline and
// the process exits 3 on regression — more than 25% ns/op (tune with
// -threshold) or ANY allocs/op (or allocs/tuple) increase:
//
//	go test -run '^$' -bench "$PLANNER_BENCH" -benchmem . | go run ./cmd/benchjson -o /tmp/b.json -compare BENCH_planner.json
//
// Compare two files with the trajectory in mind: ns_per_op and
// plans_per_sec are hardware-relative, allocs_per_op, bytes_per_op and
// the churn/byte ratios are not — an allocs/op regression is a real
// regression on any machine. That asymmetry is why the ns/op gate carries
// a generous tolerance while the allocs/op gate carries none.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hnp/internal/benchfmt"
)

func main() {
	var (
		outPath   = flag.String("o", "BENCH_planner.json", "output file ('-' for stdout)")
		compare   = flag.String("compare", "", "baseline trajectory to diff this run against; exit 3 on regression")
		threshold = flag.Float64("threshold", 0.25, "ns/op regression tolerance for -compare, as a fraction (allocs/op tolerates nothing)")
	)
	flag.Parse()
	regressions, err := run(*outPath, *compare, *threshold, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed vs %s\n", regressions, *compare)
		os.Exit(3)
	}
	if *compare != "" {
		fmt.Fprintf(os.Stderr, "benchjson: no regressions vs %s\n", *compare)
	}
}

// run converts the input and writes the trajectory; with a baseline it
// also prints the diff and returns the number of regressed benchmarks.
func run(outPath, compare string, threshold float64, args []string) (int, error) {
	in := io.Reader(os.Stdin)
	if len(args) > 1 {
		return 0, fmt.Errorf("at most one input file, got %d", len(args))
	}
	if len(args) == 1 {
		f, err := os.Open(args[0])
		if err != nil {
			return 0, err
		}
		defer f.Close()
		in = f
	}

	traj := benchfmt.New("go test -bench | cmd/benchjson")
	var err error
	// The header's GOMAXPROCS is the benchmarks', not this converter's.
	if traj.Benchmarks, traj.GOMAXPROCS, err = benchfmt.ParseGoBench(io.TeeReader(in, os.Stderr)); err != nil {
		return 0, err
	}
	if len(traj.Benchmarks) == 0 {
		return 0, fmt.Errorf("no benchmark result on input (did go test build and match any benchmark?)")
	}
	return benchfmt.WriteAndCompare(outPath, traj, compare, threshold)
}
