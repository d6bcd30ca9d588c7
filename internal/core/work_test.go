package core

import (
	"testing"

	"hnp/internal/query"
)

// TestSolveWorkMatchesEnumeration cross-checks the closed-form candidate
// count against a direct walk of the DP's loops: the same submask order
// Solve uses, the same canonical-split filter, the same m×m ship fold and
// root scan. If Solve's enumeration structure ever changes, this is the
// test that forces SolveWork to change with it.
func TestSolveWorkMatchesEnumeration(t *testing.T) {
	for k := 1; k <= 8; k++ {
		for _, m := range []int{1, 3, 5, 32} {
			goal := query.Mask(1<<uint(k)) - 1
			count := 0.0
			for s := nextSubmask(0, goal); s != 0; s = nextSubmask(s, goal) {
				if s.Count() == 1 {
					count += float64(m) // the one matching input, into every site
					continue
				}
				low := s & -s
				splits := 0
				for m1 := (s - 1) & s; m1 > 0; m1 = (m1 - 1) & s {
					if m1&low == 0 {
						continue
					}
					splits++
				}
				count += float64(m*splits + m*m)
			}
			if k >= 2 {
				count += float64(m) // root scans the goal's operator placements
			} else {
				count++ // root picks the lone covering input
			}
			if got := SolveWork(k, m); got != count {
				t.Errorf("SolveWork(%d, %d) = %g, enumeration says %g", k, m, got, count)
			}
		}
	}
}

// TestSolveWorkMagnitude pins the benchmark fixture's figure so the
// trajectory numbers in BENCH_planner.json have a documented anchor.
func TestSolveWorkMagnitude(t *testing.T) {
	if got := SolveWork(6, 32); got != 68224 {
		t.Errorf("SolveWork(6, 32) = %g, want 68224", got)
	}
	if SolveWork(0, 32) != 0 || SolveWork(4, 0) != 0 {
		t.Error("degenerate shapes should report zero work")
	}
}
