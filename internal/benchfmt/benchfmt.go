// Package benchfmt defines the machine-readable benchmark-trajectory
// format cmd/benchjson writes (planner hot-path benchmarks converted from
// `go test -bench` output, BENCH_planner.json), plus the regression diff
// it gates on.
//
// Two families of figures live in one schema. Hardware-relative numbers
// (ns/op, plans/s) move with the machine, so the diff tolerates a
// configurable fraction on ns/op. Hardware-independent numbers (allocs/op,
// churn ratios) are real regressions on any machine and tolerate nothing.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Schema identifies the trajectory format; Load rejects anything else.
const Schema = "hnp-bench/v1"

// Result is one benchmark's measurement in the JSON trajectory.
type Result struct {
	Name       string `json:"name"`
	Iterations int    `json:"iterations"`
	NsPerOp    int64  `json:"ns_per_op"`
	AllocsOp   int64  `json:"allocs_per_op"`
	BytesOp    int64  `json:"bytes_per_op"`
	// PlansPerSec is the rate of plan candidates actually examined per
	// wall-clock second (0 where the notion doesn't apply): the DP's
	// relaxation count (core.SolveWork) for the Solve benchmarks, the
	// measured per-query search accounting for Deploy. It is NOT the
	// nominal exhaustive space the DP covers (cost.ClusterSpace) divided
	// by time — that figure measures the space the shared-subproblem
	// formulation avoids enumerating and once inflated this metric to an
	// absurd ~10^14/s.
	PlansPerSec float64 `json:"plans_per_sec,omitempty"`
	// OpsChurnedPerOp is the operator churn one op costs a deployed
	// system — operators stopped or started, windows and statistics lost
	// with each (0 where the notion doesn't apply). Like allocs_per_op it
	// is hardware-independent: a churn regression is real on any machine.
	OpsChurnedPerOp float64 `json:"ops_churned_per_op,omitempty"`
	// BytesVsNever / BytesVsAlways are the adaptive controller's total
	// transport bytes on the pinned chaos rate-shift seed relative to the
	// never-migrate and always-remigrate baselines (below 1.0 means the
	// controller wins; 0 where the notion doesn't apply). Also
	// hardware-independent: a ratio regression is real on any machine.
	BytesVsNever  float64 `json:"bytes_vs_never,omitempty"`
	BytesVsAlways float64 `json:"bytes_vs_always,omitempty"`
	// RewriteBytesFrac is the figure workload's planned bytes-on-wire
	// through the logical optimizer pipeline, as a fraction of the same
	// statements planned from their parsed sources and predicates alone
	// (below 1.0 means pushdown wins; 0 where the notion doesn't apply).
	// Seed-pinned and hardware-independent, like the ratios above.
	RewriteBytesFrac float64 `json:"rewrite_bytes_frac,omitempty"`

	// NsPerTuple / AllocsPerTuple divide a data-plane run by the tuples it
	// handed to the transport (0 where the notion doesn't apply), so runs
	// whose Poisson draws differ in count compare. The first moves with
	// the machine and is informational; the second, like allocs_per_op, is
	// hardware-independent and gated with no slack, to a thousandth.
	NsPerTuple     float64 `json:"ns_per_tuple,omitempty"`
	AllocsPerTuple float64 `json:"allocs_per_tuple,omitempty"`
	// NsPerEvent divides an event-queue run by the events it fired (0
	// where the notion doesn't apply); informational, like NsPerTuple.
	NsPerEvent float64 `json:"ns_per_event,omitempty"`
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
	// record, not a gate: Diff ignores them, and WriteAndCompare copies
	// them from the -compare baseline into the file it writes.
	BeforeCommit string   `json:"before_commit,omitempty"`
	Before       []Result `json:"before,omitempty"`
	Benchmarks   []Result `json:"benchmarks"`
}

// New returns a trajectory header describing this process: schema, Go
// version, platform, and the processor counts the hardware-relative
// figures were measured under.
func New(tool string) Trajectory {
	return Trajectory{
		Schema:     Schema,
		Tool:       tool,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// Load reads and validates a previously written trajectory.
func Load(path string) (Trajectory, error) {
	var t Trajectory
	buf, err := os.ReadFile(path)
	if err != nil {
		return t, err
	}
	if err := json.Unmarshal(buf, &t); err != nil {
		return t, fmt.Errorf("%s: %w", path, err)
	}
	if t.Schema != Schema {
		return t, fmt.Errorf("%s: unsupported schema %q", path, t.Schema)
	}
	return t, nil
}

// Write marshals the trajectory to path ("-" for stdout), indented, with
// a trailing newline so the committed artifact diffs cleanly.
func Write(path string, t Trajectory) error {
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

// WriteAndCompare finishes a run: it writes t to outPath and, when
// compare names a baseline, prints the diff against it to stdout and
// returns the number of regressed benchmarks. The baseline's before-rows
// are carried into the written file.
func WriteAndCompare(outPath string, t Trajectory, compare string, tol float64) (int, error) {
	var base Trajectory
	if compare != "" {
		var err error
		if base, err = Load(compare); err != nil {
			return 0, fmt.Errorf("-compare: %w", err)
		}
		t.BeforeCommit, t.Before = base.BeforeCommit, base.Before
	}
	if err := Write(outPath, t); err != nil {
		return 0, err
	}
	if outPath != "-" {
		fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	}
	if compare == "" {
		return 0, nil
	}
	return Diff(os.Stdout, base, t, tol), nil
}

// Diff prints a per-benchmark diff of cur against base and returns how
// many benchmarks regressed: ns/op beyond the tolerance, or any allocs/op
// or allocs/tuple increase (hardware-independent, hence no slack at all).
// Benchmarks present on only one side are reported — new ones in run
// order, dropped ones in baseline order — but never counted as
// regressions: renames and additions are trajectory changes, not
// slowdowns.
func Diff(w io.Writer, base, cur Trajectory, tol float64) int {
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
		if math.Floor(c.AllocsPerTuple*1000) > math.Floor(b.AllocsPerTuple*1000) {
			verdicts = append(verdicts, "allocs/tuple")
		}
		verdict := "ok"
		if len(verdicts) > 0 {
			regressions++
			verdict = "REGRESSION " + verdicts[0]
			for _, v := range verdicts[1:] {
				verdict += "+" + v
			}
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

// ParseGoBench converts the output of
//
//	go test -run '^$' -bench ... -benchmem
//
// into one Result per benchmark result line, in input order, and the
// GOMAXPROCS they ran at. The entry name is the Go benchmark name without
// the "Benchmark" prefix and the GOMAXPROCS suffix
// ("BenchmarkMigrate/delta-2" is "Migrate/delta"); go test writes no
// suffix at one P, and rows that disagree are an error, as one header
// cannot describe them. The standard units and the ones the repo's bodies
// emit through b.ReportMetric fill the matching Result fields; other
// units have no field and are dropped. Everything that is not a result
// line (the goos/pkg header, PASS/ok, "--- BENCH" logs) is skipped. A
// result line that does not parse is an error, and so is any FAIL line: a
// failed run must not become a shorter trajectory.
func ParseGoBench(r io.Reader) (out []Result, gomaxprocs int, err error) {
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
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp = int64(math.Round(v))
			case "B/op":
				res.BytesOp = int64(v)
			case "allocs/op":
				res.AllocsOp = int64(v)
			case "plans/s":
				res.PlansPerSec = v
			case "ops-churned/op":
				res.OpsChurnedPerOp = v
			case "bytes-vs-never":
				res.BytesVsNever = v
			case "bytes-vs-always":
				res.BytesVsAlways = v
			case "rewrite-bytes-frac":
				res.RewriteBytesFrac = v
			case "ns/tuple":
				res.NsPerTuple = v
			case "allocs/tuple":
				res.AllocsPerTuple = v
			case "ns/event":
				res.NsPerEvent = v
			}
		}
		out = append(out, res)
	}
	return out, gomaxprocs, sc.Err()
}
