package main

import (
	"os"
	"path/filepath"
	"testing"

	"hnp/internal/benchfmt"
)

// TestRunRefusesFailedInput: a go-test run that failed part-way, or
// matched nothing, must not become a shorter trajectory — run errors
// (main exits 1) and writes no file; the same result line in a clean
// run converts, under a header whose gomaxprocs is the run's (the "-3"),
// not this process's.
func TestRunRefusesFailedInput(t *testing.T) {
	const good = "BenchmarkA-3 \t 10\t 5 ns/op\t 3 B/op\t 1 allocs/op\n"
	for name, in := range map[string]string{
		"clean":  good + "PASS\nok  \thnp\t1s\n",
		"failed": good + "--- FAIL: BenchmarkB-3\n    bench_test.go:9: boom\nFAIL\n",
		"empty":  "PASS\nok  \thnp\t1s\n",
	} {
		src, out := filepath.Join(t.TempDir(), "in.txt"), filepath.Join(t.TempDir(), "out.json")
		if err := os.WriteFile(src, []byte(in), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := run(out, "", 0.25, []string{src})
		traj, loadErr := benchfmt.Load(out)
		if name == "clean" {
			if err != nil || loadErr != nil || len(traj.Benchmarks) != 1 || traj.Benchmarks[0].Name != "A" || traj.GOMAXPROCS != 3 {
				t.Errorf("clean: run %v, wrote %+v at GOMAXPROCS %d (load: %v), want the one entry A at 3",
					err, traj.Benchmarks, traj.GOMAXPROCS, loadErr)
			}
		} else if err == nil || !os.IsNotExist(loadErr) {
			t.Errorf("%s: run error %v, load error %v; want an error and no file", name, err, loadErr)
		}
	}
}
