package exp

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"hnp/internal/stats"
)

// quickCfg shrinks the experiments for test speed while keeping their
// qualitative shape.
func quickCfg() Config {
	return Config{Seed: 42, Workloads: 2, Queries: 6}
}

func TestFig2(t *testing.T) {
	f, err := Fig2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %d", len(f.Series))
	}
	ours := f.Final("Our approach (Top-Down)")
	if ours <= 0 {
		t.Fatal("non-positive cost")
	}
	// Joint optimization must beat both phased approaches on this
	// workload (the paper's >50% claim is checked at full scale in
	// EXPERIMENTS.md; here we assert the ordering).
	if ours >= f.Final("Relaxation") {
		t.Errorf("ours %g not better than Relaxation %g", ours, f.Final("Relaxation"))
	}
	if ours >= f.Final("Plan-then-deploy")*1.02 {
		t.Errorf("ours %g worse than plan-then-deploy %g", ours, f.Final("Plan-then-deploy"))
	}
}

// tuneCfg is large enough for the cluster-size trends of figs 5/6 to be
// statistically visible (they run in ~1s each).
func tuneCfg() Config {
	return Config{Seed: 42, Workloads: 5, Queries: 20}
}

func TestFig5CostDecreasesWithClusterSize(t *testing.T) {
	f, err := Fig5(tuneCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != len(clusterSizes) {
		t.Fatalf("series = %d", len(f.Series))
	}
	// Bigger clusters must not be dramatically worse; max_cs=64 should
	// beat max_cs=2 (fewest levels vs most approximation).
	if f.Final("max_cs=64") >= f.Final("max_cs=2") {
		t.Errorf("max_cs=64 (%g) not cheaper than max_cs=2 (%g)",
			f.Final("max_cs=64"), f.Final("max_cs=2"))
	}
	// Cumulative curves must be non-decreasing.
	for _, s := range f.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1]-1e-9 {
				t.Fatalf("series %s not cumulative at %d", s.Name, i)
			}
		}
	}
}

func TestFig6TopDownFlatAboveFour(t *testing.T) {
	f, err := Fig6(tuneCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: small max_cs means many levels and poor approximations; at
	// test scale we assert the robust end of that trend — max_cs=2 is the
	// most expensive configuration. (The flatness of large max_cs values
	// is validated at full scale; see EXPERIMENTS.md.)
	worst := f.Final("max_cs=2")
	for _, name := range []string{"max_cs=16", "max_cs=32", "max_cs=64"} {
		if f.Final(name) > worst*1.02 {
			t.Errorf("%s (%g) costlier than max_cs=2 (%g)", name, f.Final(name), worst)
		}
	}
}

// TestFig56Distribution pins Figures 5 and 6 — Bottom-Up's and Top-Down's
// final cumulative cost at each max_cs, computed as `smq -fig 5` and
// `smq -fig 6` compute them at their default scale — over seeds 42 and
// 1–9: the median (mean of the middle two) and the range, to the unit.
//
// The paper's trend is that cost falls as max_cs grows, and for Bottom-Up
// that 64 is about 21 % cheaper than 8. What holds, and is asserted, is:
//   - at every seed max_cs=2, the deepest hierarchy, is the costliest
//     setting;
//   - the medians do not rise from max_cs=2 through 32;
//   - the median at 64 is below the median at 8: 14.1 % for Bottom-Up,
//     4.0 % for Top-Down.
//
// What does not hold is pinned, not asserted. Seed by seed, for Top-Down
// each step from max_cs=4 up raises the cost at three to six of the ten
// seeds; for Bottom-Up the step from 4 to 8 raises it at four seeds, and
// 64 costs 1.6 % more than 8 at seed 9. In both figures the median rises
// from 32 to 64.
func TestFig56Distribution(t *testing.T) {
	seeds := []int64{42, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, fig := range []struct {
		name string
		run  func(Config) (*Figure, error)
		want map[int]string // median [min–max]
	}{
		{"Fig 5 (Bottom-Up)", Fig5, map[int]string{
			2:  "31596 [23666–45754]",
			4:  "15494 [11271–25835]",
			8:  "15072 [12225–22884]",
			16: "10792 [8617–14288]",
			32: "10707 [7551–14448]",
			64: "12941 [10679–14124]",
		}},
		{"Fig 6 (Top-Down)", Fig6, map[int]string{
			2:  "12678 [7940–16197]",
			4:  "9829 [7516–12816]",
			8:  "9702 [7502–14420]",
			16: "9362 [7012–12188]",
			32: "9108 [6868–12293]",
			64: "9316 [7322–12015]",
		}},
	} {
		costs := make([][]float64, len(clusterSizes))
		for _, seed := range seeds {
			cfg := DefaultConfig()
			cfg.Seed = seed
			f, err := fig.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			deepest := f.Final("max_cs=2")
			for i, cs := range clusterSizes {
				c := f.Final(fmt.Sprintf("max_cs=%d", cs))
				if cs != 2 && c >= deepest {
					t.Errorf("%s, seed %d: max_cs=%d costs %g, not below max_cs=2's %g", fig.name, seed, cs, c, deepest)
				}
				costs[i] = append(costs[i], c)
			}
		}
		median := map[int]float64{}
		for i, cs := range clusterSizes {
			v := costs[i]
			slices.Sort(v)
			mid := len(v) / 2
			median[cs] = (v[mid-1] + v[mid]) / 2
			if got := fmt.Sprintf("%.0f [%.0f–%.0f]", median[cs], v[0], v[len(v)-1]); got != fig.want[cs] {
				t.Errorf("%s, max_cs=%d: cost %s, want %s", fig.name, cs, got, fig.want[cs])
			}
			if prev := clusterSizes[max(i-1, 0)]; cs <= 32 && median[cs] > median[prev] {
				t.Errorf("%s: median cost rises from max_cs=%d (%.0f) to %d (%.0f)", fig.name, prev, median[prev], cs, median[cs])
			}
		}
		if median[64] >= median[8] {
			t.Errorf("%s: median cost at max_cs=64 (%.0f) is not below max_cs=8's (%.0f)", fig.name, median[64], median[8])
		}
	}
}

func TestFig7Ordering(t *testing.T) {
	f, err := Fig7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	opt := f.Final("Optimal")
	tdR := f.Final("Top-Down with reuse")
	tdN := f.Final("Top-Down without reuse")
	buR := f.Final("Bottom-Up with reuse")
	buN := f.Final("Bottom-Up without reuse")
	if opt <= 0 {
		t.Fatal("bad optimal")
	}
	// Reuse helps both algorithms in aggregate.
	if tdR > tdN*1.001 {
		t.Errorf("reuse hurt Top-Down: %g vs %g", tdR, tdN)
	}
	if buR > buN*1.05 {
		t.Errorf("reuse hurt Bottom-Up: %g vs %g", buR, buN)
	}
	// Neither heuristic with reuse can beat the optimal with reuse by a
	// meaningful margin... but reuse-ordering effects can make heuristics
	// edge out the per-query optimal occasionally; require sanity only.
	if tdR < opt*0.8 || buR < opt*0.8 {
		t.Errorf("heuristics suspiciously beat optimal: td=%g bu=%g opt=%g", tdR, buR, opt)
	}
	// Top-Down ranks at or below Bottom-Up.
	if tdR > buR*1.15 {
		t.Errorf("Top-Down (%g) much worse than Bottom-Up (%g)", tdR, buR)
	}
}

// TestFig7Distribution pins Fig 7's five headline numbers, computed as
// `smq -fig 7` computes them at its default scale, over seeds 42 and 1–9:
// the median of the unrounded values (mean of the middle two) and the
// range, each to the printed 0.1 %. At every seed reuse must save cost
// for both algorithms and Top-Down with reuse must beat Bottom-Up with
// reuse.
func TestFig7Distribution(t *testing.T) {
	seeds := []int64{42, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	headlines := []struct {
		name string
		want string // median [min–max], in percent
		of   func(tdR, tdN, buR, buN, opt float64) float64
	}{
		{"reuse saves Top-Down", "34.5 [30.3–39.5]", func(tdR, tdN, _, _, _ float64) float64 { return 1 - tdR/tdN }},
		{"reuse saves Bottom-Up", "38.5 [35.7–43.1]", func(_, _, buR, buN, _ float64) float64 { return 1 - buR/buN }},
		{"Top-Down over optimal", "7.0 [1.6–10.0]", func(tdR, _, _, _, opt float64) float64 { return tdR/opt - 1 }},
		{"Bottom-Up over optimal", "27.7 [19.2–35.5]", func(_, _, buR, _, opt float64) float64 { return buR/opt - 1 }},
		{"Top-Down beats Bottom-Up by", "15.8 [9.0–19.8]", func(tdR, _, buR, _, _ float64) float64 { return 1 - tdR/buR }},
	}
	values := make([][]float64, len(headlines))
	for _, seed := range seeds {
		cfg := DefaultConfig()
		cfg.Seed = seed
		f, err := Fig7(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt := f.Final("Optimal")
		tdR, tdN := f.Final("Top-Down with reuse"), f.Final("Top-Down without reuse")
		buR, buN := f.Final("Bottom-Up with reuse"), f.Final("Bottom-Up without reuse")
		if tdR >= tdN || buR >= buN || tdR >= buR {
			t.Errorf("seed %d: TD %g/%g, BU %g/%g with/without reuse: reuse must save and TD must beat BU",
				seed, tdR, tdN, buR, buN)
		}
		for i, h := range headlines {
			values[i] = append(values[i], 100*h.of(tdR, tdN, buR, buN, opt))
		}
	}
	for i, h := range headlines {
		v := values[i]
		slices.Sort(v)
		mid := len(v) / 2
		got := fmt.Sprintf("%.1f [%.1f–%.1f]", (v[mid-1]+v[mid])/2, v[0], v[len(v)-1])
		if got != h.want {
			t.Errorf("%s: %s %%, want %s %%", h.name, got, h.want)
		}
	}
}

// TestFig2Distribution: over seeds 42 and 1–9, the joint planner is the
// cheapest of Fig 2's three on 8 seeds; on seeds 2 and 4 the optimally
// placed plan-then-deploy tree beats it. The median savings are pinned
// to the printed 0.1 %.
func TestFig2Distribution(t *testing.T) {
	pinSeedSpread(t, Fig2, []string{"Our approach (Top-Down)", "Plan-then-deploy", "Relaxation"}, 8, []seedSaving{
		{"Our approach (Top-Down)", "Relaxation", "59.9 [26.8–83.4]"},
		{"Our approach (Top-Down)", "Plan-then-deploy", "23.9 [-24.9–55.7]"},
	})
}

// TestFig8Distribution: over seeds 42 and 1–9, Fig 8's ordering — Top-Down
// below Bottom-Up, both below In-Network, In-Network below Relaxation —
// holds at every seed, and the four savings the notes print are pinned.
func TestFig8Distribution(t *testing.T) {
	pinSeedSpread(t, Fig8, []string{"Top-Down with reuse", "Bottom-Up with reuse", "In-Network with reuse", "Relaxation with reuse"}, 10, []seedSaving{
		{"Top-Down with reuse", "In-Network with reuse", "49.2 [44.9–58.6]"},
		{"Top-Down with reuse", "Relaxation with reuse", "61.1 [53.4–63.9]"},
		{"Bottom-Up with reuse", "In-Network with reuse", "40.1 [34.0–54.4]"},
		{"Bottom-Up with reuse", "Relaxation with reuse", "53.9 [42.6–58.3]"},
	})
}

// seedSaving is one pinned saving: 100·(1 − of/vs) at a figure's last
// point, as "median [min–max]" over the seeds.
type seedSaving struct{ of, vs, want string }

// pinSeedSpread runs fig at its default scale over seeds 42 and 1–9. It
// wants order (series, cheapest first) to hold at exactly holds seeds, and
// each saving's median (mean of the middle two, unrounded) and range.
func pinSeedSpread(t *testing.T, fig func(Config) (*Figure, error), order []string, holds int, savings []seedSaving) {
	t.Helper()
	values := make([][]float64, len(savings))
	held := 0
	for _, seed := range []int64{42, 1, 2, 3, 4, 5, 6, 7, 8, 9} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		f, err := fig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ordered := true
		for i := 1; i < len(order); i++ {
			ordered = ordered && f.Final(order[i-1]) < f.Final(order[i])
		}
		if ordered {
			held++
		}
		for i, s := range savings {
			values[i] = append(values[i], 100*(1-f.Final(s.of)/f.Final(s.vs)))
		}
	}
	if held != holds {
		t.Errorf("%s holds on %d of 10 seeds, want %d", strings.Join(order, " < "), held, holds)
	}
	for i, s := range savings {
		v := values[i]
		slices.Sort(v)
		mid := len(v) / 2
		if got := fmt.Sprintf("%.1f [%.1f–%.1f]", (v[mid-1]+v[mid])/2, v[0], v[len(v)-1]); got != s.want {
			t.Errorf("%s vs %s saves %s %%, want %s %%", s.of, s.vs, got, s.want)
		}
	}
}

func TestFig8Ordering(t *testing.T) {
	f, err := Fig8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	td := f.Final("Top-Down with reuse")
	if td >= f.Final("Relaxation with reuse") {
		t.Errorf("Top-Down %g not cheaper than Relaxation %g", td, f.Final("Relaxation with reuse"))
	}
	if td >= f.Final("In-Network with reuse")*1.05 {
		t.Errorf("Top-Down %g not competitive with In-Network %g", td, f.Final("In-Network with reuse"))
	}
}

func TestFig9SearchSpace(t *testing.T) {
	f, err := Fig9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	ex := f.FindSeries("Exhaustive (Lemma 1)")
	td := f.FindSeries("Top-Down")
	bu := f.FindSeries("Bottom-Up")
	bound := f.FindSeries("Analytical bound")
	for i := range ex.X {
		if td.Y[i] >= ex.Y[i]*0.01 {
			t.Errorf("n=%g: top-down %g not ≥99%% below exhaustive %g", ex.X[i], td.Y[i], ex.Y[i])
		}
		if td.Y[i] > bound.Y[i] {
			t.Errorf("n=%g: top-down %g exceeds analytical bound %g", ex.X[i], td.Y[i], bound.Y[i])
		}
		// Over uniform sources Bottom-Up's edge is small and not present at
		// every size: at 512 nodes it examines 61,632 plans to Top-Down's
		// 61,536 (1.0016×), so each size gets 0.2% of slack.
		if bu.Y[i] > td.Y[i]*1.002 {
			t.Errorf("n=%g: bottom-up %g above 1.002× top-down %g", ex.X[i], bu.Y[i], td.Y[i])
		}
	}
	// The figure's own claim is the mean over the sweep.
	if b, d := stats.Mean(bu.Y), stats.Mean(td.Y); b > d {
		t.Errorf("bottom-up mean %g above top-down mean %g", b, d)
	}
}

func TestFig10DeploymentTimes(t *testing.T) {
	f, err := Fig10(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 4 {
		t.Fatalf("series = %d", len(f.Series))
	}
	// Bottom-Up must be faster than Top-Down at matching cluster size.
	for _, cs := range []string{"4", "8"} {
		bu := f.Final("Bottom-Up (cluster size=" + cs + ")")
		td := f.Final("Top-Down (cluster size=" + cs + ")")
		if bu >= td {
			t.Errorf("cluster size %s: bottom-up %g not faster than top-down %g", cs, bu, td)
		}
	}
	// Regression: the headline note classifies series by an explicit
	// algorithm tag, not by name prefix; since Bottom-Up is faster here,
	// the tagged sums must report a positive reduction.
	found := false
	for _, n := range f.Notes {
		if strings.Contains(n, "lower than Top-Down") {
			found = true
			// A swapped classification would negate the reduction.
			if strings.Contains(n, "is -") {
				t.Errorf("headline note misclassified series: %q", n)
			}
		}
	}
	if !found {
		t.Error("missing Bottom-Up vs Top-Down headline note")
	}
}

func TestFig11CostsAndRuntimeCrossCheck(t *testing.T) {
	f, err := Fig11(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	td8 := f.Final("Top-Down (cluster size=8)")
	bu8 := f.Final("Bottom-Up (cluster size=8)")
	if td8 > bu8*1.05 {
		t.Errorf("top-down %g worse than bottom-up %g", td8, bu8)
	}
	found := false
	for _, n := range f.Notes {
		if strings.Contains(n, "runtime cross-check") {
			found = true
			// Regression: a zero analytic total used to print a NaN ratio.
			if strings.Contains(n, "NaN") || strings.Contains(n, "Inf") {
				t.Errorf("cross-check note has non-finite ratio: %q", n)
			}
		}
	}
	if !found {
		t.Error("missing runtime cross-check note")
	}
}

// TestFig11Distribution pins Figure 11, computed as `smq -fig 11` computes
// it, over seeds 42 and 1–9. For each cluster size it pins on how many
// seeds Top-Down's 25-query cumulative cost is below Bottom-Up's, and the
// median (mean of the middle two) and range of the saving, to the printed
// 0.1 %. For the runtime cross-check it pins the median and range of the
// metered-to-analytic cost ratio as the note prints it, and it requires
// all 25 queries to run at every seed.
//
// The paper says Top-Down is cheaper. What holds, and is asserted, is
// that the median saving is positive at both cluster sizes and that
// metering never reads below the model. What does not hold is pinned:
// Bottom-Up wins at cluster size 4 on seed 8 and at 8 on three seeds,
// and seed 42's ratio is the lowest of the ten.
func TestFig11Distribution(t *testing.T) {
	seeds := []int64{42, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	var saving [2][]float64 // cluster sizes 4 and 8, in percent
	var ratios []float64
	for _, seed := range seeds {
		cfg := DefaultConfig()
		cfg.Seed = seed
		f, err := Fig11(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, cs := range []string{"4", "8"} {
			td, bu := f.Final("Top-Down (cluster size="+cs+")"), f.Final("Bottom-Up (cluster size="+cs+")")
			saving[i] = append(saving[i], 100*(1-td/bu))
		}
		var ran, of int
		var ratio float64
		for _, n := range f.Notes {
			if i := strings.Index(n, "(ratio "); i >= 0 {
				fmt.Sscanf(n, "runtime cross-check: %d/%d", &ran, &of)
				fmt.Sscanf(n[i:], "(ratio %g)", &ratio)
			}
		}
		if ran != 25 || of != 25 || ratio < 1 {
			t.Errorf("seed %d: %d/%d queries ran, ratio %.2f: want 25/25 and a ratio of at least 1", seed, ran, of, ratio)
		}
		ratios = append(ratios, ratio)
	}
	summary := func(v []float64, format string) (string, float64) {
		slices.Sort(v)
		mid := (v[len(v)/2-1] + v[len(v)/2]) / 2
		return fmt.Sprintf(format+" ["+format+"–"+format+"]", mid, v[0], v[len(v)-1]), mid
	}
	for i, want := range []string{"9/10: 13.9 [-5.1–45.9]", "7/10: 5.6 [-6.7–15.6]"} {
		wins := 0
		for _, s := range saving[i] {
			if s > 0 {
				wins++
			}
		}
		got, median := summary(saving[i], "%.1f")
		if got = fmt.Sprintf("%d/10: %s", wins, got); got != want {
			t.Errorf("cluster size %d: Top-Down cheaper on %s %%, want %s %%", 4<<i, got, want)
		}
		if median <= 0 {
			t.Errorf("cluster size %d: median Top-Down saving %.1f %% is not positive", 4<<i, median)
		}
	}
	// The ratios are the note's two-decimal figures, so their median needs
	// a third decimal.
	if got, _ := summary(ratios, "%.3f"); got != "1.525 [1.080–1.890]" {
		t.Errorf("metered/analytic cost ratio %s, want 1.525 [1.080–1.890]", got)
	}
}

func TestRenderProducesTable(t *testing.T) {
	f, err := Fig9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	f.Render(&buf)
	out := buf.String()
	for _, want := range []string{"fig9", "Top-Down", "Exhaustive (Lemma 1)", "note:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFinalPanicsOnUnknownSeries(t *testing.T) {
	f := &Figure{ID: "x"}
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown series")
		}
	}()
	f.Final("nope")
}

func TestRenderCSV(t *testing.T) {
	f := &Figure{
		ID: "x", XLabel: "n",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{30}},
		},
		Notes: []string{"hello"},
	}
	var buf bytes.Buffer
	f.RenderCSV(&buf)
	got := buf.String()
	want := "n,a,b\n1,10,30\n2,20,\n# hello\n"
	if got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
}

func TestRenderEmptyFigure(t *testing.T) {
	var buf bytes.Buffer
	(&Figure{ID: "empty", Title: "t"}).Render(&buf)
	if !strings.Contains(buf.String(), "no data") {
		t.Errorf("empty render = %q", buf.String())
	}
}
