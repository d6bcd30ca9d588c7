package exp

import "hnp/internal/engine"

// Fig7 reproduces Figure 7: sub-optimality and the effect of operator
// reuse at max_cs=32 — cumulative cost of the DP optimal versus Top-Down
// and Bottom-Up, each with and without reuse. The paper reports ~27%/30%
// savings from reuse and 10%/34% average sub-optimality for
// Top-Down/Bottom-Up.
func Fig7(cfg Config) (*Figure, error) {
	cfg.fig = "fig7"
	const (
		nodes = 128
		maxCS = 32
	)
	e := newEnv(nodes, cfg.Seed)
	h := e.hier(maxCS)

	td, bu := algorithm(engine.AlgoTopDown), algorithm(engine.AlgoBottomUp)
	variants := []struct {
		name  string
		reuse bool
		opt   optimizer
	}{
		{"Top-Down without reuse", false, td},
		{"Top-Down with reuse", true, td},
		{"Bottom-Up without reuse", false, bu},
		{"Bottom-Up with reuse", true, bu},
		{"Optimal", true, algorithm(engine.AlgoOptimal)},
	}

	f := &Figure{
		ID:     "fig7",
		Title:  "Sub-optimality and effect of reuse (max_cs=32, 128 nodes)",
		XLabel: "queries deployed",
		YLabel: "cumulative cost per unit time",
	}
	series := make([]Series, len(variants))
	err := runParallel(len(variants), func(vi int) error {
		v := variants[vi]
		avg, err := e.averaged(cfg, h, v.reuse, v.opt)
		if err != nil {
			return err
		}
		series[vi] = Series{Name: v.name, X: seqX(cfg.Queries), Y: avg}
		return nil
	})
	if err != nil {
		return nil, err
	}
	f.Series = series

	opt := f.Final("Optimal")
	tdR, tdN := f.Final("Top-Down with reuse"), f.Final("Top-Down without reuse")
	buR, buN := f.Final("Bottom-Up with reuse"), f.Final("Bottom-Up without reuse")
	f.AddNote("reuse saves Top-Down %.1f%% (paper: 27%%), Bottom-Up %.1f%% (paper: 30%%)",
		100*(1-tdR/tdN), 100*(1-buR/buN))
	f.AddNote("sub-optimality with reuse: Top-Down %.1f%% (paper: 10%%), Bottom-Up %.1f%% (paper: 34%%)",
		100*(tdR/opt-1), 100*(buR/opt-1))
	f.AddNote("Top-Down with reuse beats Bottom-Up with reuse by %.1f%% (paper: ~19%%)",
		100*(1-tdR/buR))
	return f, nil
}
