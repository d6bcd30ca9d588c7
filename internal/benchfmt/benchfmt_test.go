package benchfmt

import (
	"reflect"
	"strings"
	"testing"
)

// TestDiffGates pins what Diff counts as a regression at tolerance 0.25:
// ns/op beyond it, any allocs/op or allocs/tuple increase — and nothing
// else.
func TestDiffGates(t *testing.T) {
	base := Result{Name: "X", NsPerOp: 1000, AllocsOp: 10, NsPerTuple: 200, AllocsPerTuple: 0.007}
	cases := []struct {
		name    string
		mutate  func(r *Result)
		verdict string // the line's last column; "ok" means not counted
	}{
		{"unchanged", func(r *Result) {}, "ok"},
		{"faster, fewer allocs", func(r *Result) { r.NsPerOp, r.AllocsOp = 500, 0 }, "ok"},
		{"ns/op at the tolerance", func(r *Result) { r.NsPerOp = 1250 }, "ok"},
		{"ns/op beyond the tolerance", func(r *Result) { r.NsPerOp = 1251 }, "REGRESSION ns/op"},
		{"one more alloc", func(r *Result) { r.AllocsOp = 11 }, "REGRESSION allocs/op"},
		{"a thousandth more allocs per tuple", func(r *Result) { r.AllocsPerTuple = 0.008 }, "REGRESSION allocs/tuple"},
		{"allocs per tuple within a thousandth", func(r *Result) { r.AllocsPerTuple = 0.0079 }, "ok"},
		{"fewer allocs per tuple, slower per tuple", func(r *Result) { r.AllocsPerTuple, r.NsPerTuple = 0, 900 }, "ok"},
		{"everything at once", func(r *Result) { r.NsPerOp, r.AllocsOp = 2000, 11 }, "REGRESSION ns/op+allocs/op"},
		{"informational fields only", func(r *Result) { r.BytesOp = 1 << 20 }, "ok"},
	}
	for _, tc := range cases {
		cur := base
		tc.mutate(&cur)
		var out strings.Builder
		got := Diff(&out, Trajectory{Benchmarks: []Result{base}}, Trajectory{Benchmarks: []Result{cur}}, 0.25)
		want := 0
		if tc.verdict != "ok" {
			want = 1
		}
		if got != want {
			t.Errorf("%s: %d regressions, want %d\n%s", tc.name, got, want, out.String())
		}
		if line := strings.TrimSpace(out.String()); !strings.HasSuffix(line, "  "+tc.verdict) {
			t.Errorf("%s: verdict column of %q, want %q", tc.name, line, tc.verdict)
		}
	}

	// A zero baseline figure gates nothing: there is no ratio to take.
	var out strings.Builder
	if got := Diff(&out, Trajectory{Benchmarks: []Result{{Name: "Z"}}},
		Trajectory{Benchmarks: []Result{{Name: "Z", NsPerOp: 5}}}, 0.25); got != 0 {
		t.Errorf("zero baseline: %d regressions, want 0\n%s", got, out.String())
	}
}

// TestDiffOneSidedRows: rows on one side only are reported, never
// counted, and come out in a fixed order — new ones in run order, dropped
// ones in baseline order.
func TestDiffOneSidedRows(t *testing.T) {
	names := func(ns ...string) Trajectory {
		var tr Trajectory
		for _, n := range ns {
			tr.Benchmarks = append(tr.Benchmarks, Result{Name: n, NsPerOp: 100})
		}
		return tr
	}
	base := names("D4", "Kept", "D1", "D3", "D2", "D0")
	cur := names("N2", "Kept", "N1")
	want := []string{"N2 new", "Kept ns/op", "N1 new", "D4 dropped", "D1 dropped", "D3 dropped", "D2 dropped", "D0 dropped"}
	for run := 0; run < 20; run++ { // map order would differ between runs
		var out strings.Builder
		if got := Diff(&out, base, cur, 0.25); got != 0 {
			t.Fatalf("one-sided rows counted as %d regressions\n%s", got, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")[1:] // skip the header
		if len(lines) != len(want) {
			t.Fatalf("%d rows, want %d\n%s", len(lines), len(want), out.String())
		}
		for i, line := range lines {
			f := strings.Fields(line)
			if got := f[0] + " " + f[1]; got != want[i] {
				t.Fatalf("run %d row %d = %q, want %q\n%s", run, i, got, want[i], out.String())
			}
		}
	}
}

func TestParseGoBench(t *testing.T) {
	const in = `goos: linux
goarch: amd64
pkg: hnp
cpu: Some CPU @ 2.00GHz
BenchmarkSolveK4-2             	   59743	     20041 ns/op	 609932631 plans/s	     768 B/op	      11 allocs/op
BenchmarkAPSP-2                	    3752	    408244.4 ns/op
BenchmarkAdsInputsFor/1024-2   	  105898	     12415 ns/op	    5625 B/op	      51 allocs/op
BenchmarkMigrate/delta-2       	   70600	     15166 ns/op	         2.000 ops-churned/op	   11336 B/op	     117 allocs/op
--- BENCH: BenchmarkMigrate/delta-2
    bench_test.go:1: a log line
BenchmarkAdaptControl/compare-2         	       1	1814076189 ns/op	         0.8634 bytes-vs-always	         0.5875 bytes-vs-never	         8.000 migrations/op	274901528 B/op	 8022356 allocs/op
BenchmarkRewritePushdown-2     	   18064	     73196 ns/op	         0.1763 rewrite-bytes-frac	   36955 B/op	     569 allocs/op
BenchmarkDeploy/telemetry-off-2	   20847	     73014 ns/op	 142365391 plans/s	    5698 B/op	     116 allocs/op
BenchmarkDataPlane-2 	   13141	     89161 ns/op	         0.006930 allocs/tuple	       219.3 ns/tuple	   22631 B/op	       2 allocs/op
BenchmarkEventQueue-2 	     100	  11222333 ns/op	        84.50 ns/event	      16 B/op	       0 allocs/op
PASS
ok  	hnp	31.5s
`
	want := []Result{
		{Name: "SolveK4", Iterations: 59743, NsPerOp: 20041, PlansPerSec: 609932631, BytesOp: 768, AllocsOp: 11},
		{Name: "APSP", Iterations: 3752, NsPerOp: 408244},
		{Name: "AdsInputsFor/1024", Iterations: 105898, NsPerOp: 12415, BytesOp: 5625, AllocsOp: 51},
		{Name: "Migrate/delta", Iterations: 70600, NsPerOp: 15166, OpsChurnedPerOp: 2, BytesOp: 11336, AllocsOp: 117},
		{Name: "AdaptControl/compare", Iterations: 1, NsPerOp: 1814076189, BytesVsAlways: 0.8634, BytesVsNever: 0.5875,
			BytesOp: 274901528, AllocsOp: 8022356},
		{Name: "RewritePushdown", Iterations: 18064, NsPerOp: 73196, RewriteBytesFrac: 0.1763, BytesOp: 36955, AllocsOp: 569},
		{Name: "Deploy/telemetry-off", Iterations: 20847, NsPerOp: 73014, PlansPerSec: 142365391, BytesOp: 5698, AllocsOp: 116},
		{Name: "DataPlane", Iterations: 13141, NsPerOp: 89161, AllocsPerTuple: 0.00693, NsPerTuple: 219.3, BytesOp: 22631, AllocsOp: 2},
		{Name: "EventQueue", Iterations: 100, NsPerOp: 11222333, NsPerEvent: 84.5, BytesOp: 16},
	}
	got, procs, err := ParseGoBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed\n%+v\nwant\n%+v", got, want)
	}
	if procs != 2 {
		t.Errorf("GOMAXPROCS %d from rows suffixed -2", procs)
	}

	if got, _, err := ParseGoBench(strings.NewReader("PASS\nok  \thnp\t0.1s\n")); err != nil || len(got) != 0 {
		t.Errorf("no result lines: %v, %v; want none, nil", got, err)
	}
}

// The header's gomaxprocs is the benchmark run's, read off the row names:
// go test writes no suffix at one P (-cpu 1), "-N" above it.
func TestParseGoBenchGOMAXPROCS(t *testing.T) {
	for _, c := range []struct {
		in, second string
		procs      int
	}{
		{"BenchmarkA \t 10\t 5 ns/op\nBenchmarkB/64 \t 10\t 5 ns/op\n", "B/64", 1},
		{"BenchmarkA-2 \t 10\t 5 ns/op\nBenchmarkB/64-2 \t 10\t 5 ns/op\n", "B/64", 2},
		{"BenchmarkA-16 \t 10\t 5 ns/op\nBenchmarkB/x-y-16 \t 10\t 5 ns/op\n", "B/x-y", 16},
	} {
		got, procs, err := ParseGoBench(strings.NewReader(c.in))
		if err != nil || procs != c.procs || len(got) != 2 || got[0].Name != "A" || got[1].Name != c.second {
			t.Errorf("%q: rows %+v at GOMAXPROCS %d, %v; want A and %s at %d", c.in, got, procs, err, c.second, c.procs)
		}
	}
}

func TestParseGoBenchRejects(t *testing.T) {
	good := "BenchmarkA-2 \t 10\t 5 ns/op\n"
	for name, in := range map[string]string{
		"name only":          good + "BenchmarkB-2\n",
		"no metric":          good + "BenchmarkB-2 \t 10\n",
		"value without unit": good + "BenchmarkB-2 \t 10\t 5 ns/op\t 7\n",
		"iterations":         good + "BenchmarkB-2 \t many\t 5 ns/op\n",
		"value":              good + "BenchmarkB-2 \t 10\t fast ns/op\n",
		"failed benchmark":   good + "--- FAIL: BenchmarkB-2\n    bench_test.go:9: boom\n",
		"failed package":     good + "FAIL\thnp\t0.4s\n",
		"failed build":       "FAIL\thnp [build failed]\n",
		"mixed GOMAXPROCS":   good + "BenchmarkB-4 \t 10\t 5 ns/op\n",
		"some rows at one P": good + "BenchmarkB \t 10\t 5 ns/op\n",
	} {
		if got, _, err := ParseGoBench(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted, returning %+v", name, got)
		} else if got != nil {
			t.Errorf("%s: partial result %+v alongside %v", name, got, err)
		}
	}
}
