package exp

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs runs the rest of the test at GOMAXPROCS n: runParallel sizes
// its pool from it, so 1 is the serial run and more fans out even on a
// single-core test machine.
func withProcs(t testing.TB, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestParallelFigureDeterminism asserts the harness contract: a figure
// computed with the parallel harness is bit-identical to the serial run —
// same series order, same X/Y values, same notes.
func TestParallelFigureDeterminism(t *testing.T) {
	figures := []struct {
		name string
		run  func(Config) (*Figure, error)
	}{
		{"Fig5", Fig5},
		{"Fig6", Fig6},
		{"Fig7", Fig7},
		{"Fig8", Fig8},
		{"Fig9", Fig9},
	}
	for _, fig := range figures {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			at := func(procs int) *Figure {
				withProcs(t, procs)
				f, err := fig.run(quickCfg())
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			want, got := at(1), at(4)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("parallel %s differs from serial:\nparallel: %+v\nserial:   %+v", fig.name, got, want)
			}
		})
	}
}

func TestRunParallelCoversAllIndices(t *testing.T) {
	withProcs(t, 8)
	const n = 100
	var hits [n]atomic.Int32
	if err := runParallel(n, func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, got)
		}
	}
}

func TestRunParallelPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, procs := range []int{1, 8} {
		withProcs(t, procs)
		err := runParallel(10, func(i int) error {
			if i == 7 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("GOMAXPROCS %d: err = %v, want sentinel", procs, err)
		}
	}
	if err := runParallel(0, func(int) error { return sentinel }); err != nil {
		t.Errorf("n=0 invoked fn: %v", err)
	}
}
