// Command benchjson converts `go test -bench` output into the repo's
// machine-readable benchmark trajectory, the record this and future perf
// PRs are tracked against, and diffs a run against a committed one. It
// owns no benchmark body: every row of BENCH_planner.json is the go-test
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
// Two families of figures live in one file. Hardware-relative numbers
// (ns/op, plans/s) move with the machine, so the ns/op gate carries a
// generous tolerance. Hardware-independent numbers (allocs/op, the
// churn/byte ratios) are real regressions on any machine, so the
// allocs/op gate carries none.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// schema identifies the trajectory format; load rejects anything else.
const schema = "hnp-bench/v2"

// Result is one benchmark's measurement in the JSON trajectory.
type Result struct {
	Name       string `json:"name"`
	Iterations int    `json:"iterations"`
	NsPerOp    int64  `json:"ns_per_op"`
	AllocsOp   int64  `json:"allocs_per_op"`
	BytesOp    int64  `json:"bytes_per_op"`
	// Metrics holds every other figure of the result line — what the
	// bodies report through b.ReportMetric — keyed by its go-test unit
	// ("plans/s", "ops-churned/op", "allocs/tuple", ...). README
	// "Benchmark trajectory" says what each tracked unit measures.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Trajectory is one benchmark run: environment provenance plus results.
type Trajectory struct {
	Schema     string `json:"schema"`
	Tool       string `json:"tool"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	// BeforeCommit and Before keep rows measured at an earlier commit with
	// the same fixtures, benchtime and machine as a run that replaced a
	// code path, so the file shows both sides of the change. They are a
	// record, not a gate: diff ignores them, and writeAndCompare copies
	// them from the -compare baseline into the file it writes.
	BeforeCommit string   `json:"before_commit,omitempty"`
	Before       []Result `json:"before,omitempty"`
	Benchmarks   []Result `json:"benchmarks"`
}

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

	traj := Trajectory{
		Schema:    schema,
		Tool:      "go test -bench | cmd/benchjson",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	var err error
	// The header's GOMAXPROCS is the benchmarks', not this converter's.
	if traj.Benchmarks, traj.GOMAXPROCS, err = parseGoBench(io.TeeReader(in, os.Stderr)); err != nil {
		return 0, err
	}
	if len(traj.Benchmarks) == 0 {
		return 0, fmt.Errorf("no benchmark result on input (did go test build and match any benchmark?)")
	}
	return writeAndCompare(outPath, traj, compare, threshold)
}

// load reads and validates a previously written trajectory.
func load(path string) (Trajectory, error) {
	var t Trajectory
	buf, err := os.ReadFile(path)
	if err != nil {
		return t, err
	}
	if err := json.Unmarshal(buf, &t); err != nil {
		return t, fmt.Errorf("%s: %w", path, err)
	}
	if t.Schema != schema {
		return t, fmt.Errorf("%s: unsupported schema %q, want %q", path, t.Schema, schema)
	}
	return t, nil
}

// write marshals the trajectory to path ("-" for stdout), indented, with
// a trailing newline so the committed artifact diffs cleanly.
func write(path string, t Trajectory) error {
	buf, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// writeAndCompare finishes a run: it writes t to outPath and, when
// compare names a baseline, prints the diff against it to stdout and
// returns the number of regressed benchmarks. The baseline's before-rows
// are carried into the written file.
func writeAndCompare(outPath string, t Trajectory, compare string, tol float64) (int, error) {
	var base Trajectory
	if compare != "" {
		var err error
		if base, err = load(compare); err != nil {
			return 0, fmt.Errorf("-compare: %w", err)
		}
		t.BeforeCommit, t.Before = base.BeforeCommit, base.Before
	}
	if err := write(outPath, t); err != nil {
		return 0, err
	}
	if outPath != "-" {
		fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	}
	if compare == "" {
		return 0, nil
	}
	return diff(os.Stdout, base, t, tol), nil
}

// diff prints a per-benchmark diff of cur against base and returns how
// many benchmarks regressed: ns/op beyond the tolerance, or any allocs/op
// or allocs/tuple increase (hardware-independent, hence no slack at all).
// Benchmarks present on only one side are reported — new ones in run
// order, dropped ones in baseline order — but never counted as
// regressions: renames and additions are trajectory changes, not
// slowdowns.
func diff(w io.Writer, base, cur Trajectory, tol float64) int {
	byName := map[string]Result{}
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	fmt.Fprintf(w, "baseline %s/%s go %s; ns/op tolerance +%.0f%%\n",
		base.GOOS, base.GOARCH, base.GoVersion, tol*100)
	regressions := 0
	for _, c := range cur.Benchmarks {
		b, ok := byName[c.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s new (no baseline entry)\n", c.Name)
			continue
		}
		delete(byName, c.Name)
		var verdicts []string
		var pct float64
		if b.NsPerOp > 0 {
			pct = 100 * (float64(c.NsPerOp) - float64(b.NsPerOp)) / float64(b.NsPerOp)
			if float64(c.NsPerOp) > float64(b.NsPerOp)*(1+tol) {
				verdicts = append(verdicts, "ns/op")
			}
		}
		if c.AllocsOp > b.AllocsOp {
			verdicts = append(verdicts, "allocs/op")
		}
		// Truncated to thousandths, as allocs/op is to whole allocations:
		// a short run's handful of runtime allocations is not a regression.
		if math.Floor(c.Metrics["allocs/tuple"]*1000) > math.Floor(b.Metrics["allocs/tuple"]*1000) {
			verdicts = append(verdicts, "allocs/tuple")
		}
		verdict := "ok"
		if len(verdicts) > 0 {
			regressions++
			verdict = "REGRESSION " + strings.Join(verdicts, "+")
		}
		fmt.Fprintf(w, "%-16s ns/op %10d -> %10d (%+6.1f%%)  allocs/op %5d -> %5d  %s\n",
			c.Name, b.NsPerOp, c.NsPerOp, pct, b.AllocsOp, c.AllocsOp, verdict)
	}
	for _, b := range base.Benchmarks {
		if _, dropped := byName[b.Name]; dropped {
			fmt.Fprintf(w, "%-16s dropped (in baseline, not in this run)\n", b.Name)
		}
	}
	return regressions
}

// parseGoBench converts the output of
//
//	go test -run '^$' -bench ... -benchmem
//
// into one Result per benchmark result line, in input order, and the
// GOMAXPROCS they ran at. The entry name is the Go benchmark name without
// the "Benchmark" prefix and the GOMAXPROCS suffix
// ("BenchmarkMigrate/delta-2" is "Migrate/delta"); go test writes no
// suffix at one P, and rows that disagree are an error, as one header
// cannot describe them. ns/op, B/op and allocs/op fill their fields; every
// other unit goes into Metrics under its own name. Everything that is not
// a result line (the goos/pkg header, PASS/ok, "--- BENCH" logs) is
// skipped. A result line that does not parse is an error, and so is any
// FAIL line: a failed run must not become a shorter trajectory.
func parseGoBench(r io.Reader) (out []Result, gomaxprocs int, err error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") {
			return nil, 0, fmt.Errorf("benchmark run failed: %q", line)
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 {
			return nil, 0, fmt.Errorf("malformed benchmark line %q", line)
		}
		res, procs := Result{Name: strings.TrimPrefix(f[0], "Benchmark")}, 1
		// go test appends "-N" (GOMAXPROCS) to the name when N > 1.
		if i := strings.LastIndexByte(res.Name, '-'); i >= 0 {
			if n, err := strconv.Atoi(res.Name[i+1:]); err == nil && n > 0 {
				res.Name, procs = res.Name[:i], n
			}
		}
		if gomaxprocs != 0 && procs != gomaxprocs {
			return nil, 0, fmt.Errorf("benchmark line %q ran at GOMAXPROCS %d, the rows before it at %d", line, procs, gomaxprocs)
		}
		gomaxprocs = procs
		if res.Iterations, err = strconv.Atoi(f[1]); err != nil {
			return nil, 0, fmt.Errorf("malformed benchmark line %q: iterations: %w", line, err)
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, 0, fmt.Errorf("malformed benchmark line %q: %s: %w", line, f[i+1], err)
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				res.NsPerOp = int64(math.Round(v))
			case "B/op":
				res.BytesOp = int64(v)
			case "allocs/op":
				res.AllocsOp = int64(v)
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = v
			}
		}
		out = append(out, res)
	}
	return out, gomaxprocs, sc.Err()
}
