package stats

import "testing"

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %g", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %g", got)
	}
	if got := Percentile(xs, 100); got != 9 {
		t.Errorf("p100 = %g", got)
	}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %g", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile != 0")
	}
	// Input must not be mutated.
	if xs[0] != 9 {
		t.Error("Percentile mutated input")
	}
}

func TestCumulative(t *testing.T) {
	got := Cumulative([]float64{1, 2, 3})
	want := []float64{1, 3, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Cumulative = %v", got)
		}
	}
	if len(Cumulative(nil)) != 0 {
		t.Error("Cumulative(nil) not empty")
	}
}

func TestMeanAcross(t *testing.T) {
	got := MeanAcross([][]float64{{1, 2}, {3, 4}})
	if got[0] != 2 || got[1] != 3 {
		t.Errorf("MeanAcross = %v", got)
	}
	if MeanAcross(nil) != nil {
		t.Error("MeanAcross(nil) != nil")
	}
}

// TestMeanAcrossRagged is the regression test for the out-of-range panic:
// output used to be sized from rows[0] while every row was indexed in
// full, so a longer later row crashed. Ragged rows now average over the
// common prefix.
func TestMeanAcrossRagged(t *testing.T) {
	got := MeanAcross([][]float64{{1, 2}, {3, 4, 5}})
	if len(got) != 2 {
		t.Fatalf("ragged MeanAcross length = %d, want 2", len(got))
	}
	if got[0] != 2 || got[1] != 3 {
		t.Errorf("ragged MeanAcross = %v", got)
	}
	// Shorter later row truncates too.
	got = MeanAcross([][]float64{{1, 2, 3}, {3}})
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("ragged MeanAcross = %v", got)
	}
	// An empty row yields an empty (non-panicking) result.
	if got := MeanAcross([][]float64{{1, 2}, {}}); len(got) != 0 {
		t.Errorf("empty-row MeanAcross = %v", got)
	}
}
