package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// referenceScratch holds the reference kernel's tables: the fields the
// pre-rework solveScratch had, allocated per run.
type referenceScratch struct {
	ins     []query.Input
	subs    []query.Mask
	sdist   []float64
	idist   []float64
	avail   []float64
	availCh []int32
	opCost  []float64
	opSplit []query.Mask
}

// referenceSolve is the DP kernel as it stood before the rework, loop nest
// verbatim: every distance through Problem.Dist, sub-masks sorted by
// popcount, the split search site-major with the feasibility test, and a
// fold that visits every feasible row. It is the plan-identity oracle —
// TestSolveMatchesReference requires Solve to return the same plan and the
// same cost bit for bit on instances built to tie.
func referenceSolve(p Problem, buildPlan bool) (*query.PlanNode, float64, error) {
	sc := new(referenceScratch)
	if p.Goal == 0 {
		return nil, 0, fmt.Errorf("core: empty goal")
	}
	// Collect usable inputs.
	ins := sc.ins[:0]
	for _, in := range p.Inputs {
		if in.Mask != 0 && in.Mask&p.Goal == in.Mask {
			ins = append(ins, in)
		}
	}
	sc.ins = ins
	covered := query.Mask(0)
	for i := range ins {
		covered |= ins[i].Mask
	}
	if covered != p.Goal {
		return nil, 0, fmt.Errorf("core: goal %b not coverable (inputs cover %b)", p.Goal, covered)
	}

	sites, err := dedupeSites(p.Sites)
	if err != nil {
		return nil, 0, err
	}
	m := len(sites)
	if m == 0 {
		return nil, 0, fmt.Errorf("core: no candidate sites")
	}

	size := 1 << uint(bits.Len32(uint32(p.Goal)))
	slab := size * m
	sc.avail = growFloats(sc.avail, slab)
	sc.availCh = growInt32(sc.availCh, slab)
	sc.opCost = growFloats(sc.opCost, slab)
	sc.opSplit = growMasks(sc.opSplit, slab)
	// Only rows of actual submasks of Goal are written and read, so the
	// slabs need no clearing between runs.

	// Materialize every distance the DP will probe, once.
	sc.sdist = growFloats(sc.sdist, m*m)
	for u := 0; u < m; u++ {
		row := sc.sdist[u*m : u*m+m]
		su := sites[u]
		for v := range row {
			row[v] = p.Dist(su, sites[v])
		}
	}
	sc.idist = growFloats(sc.idist, len(ins)*m)
	for i := range ins {
		row := sc.idist[i*m : i*m+m]
		loc := ins[i].Loc
		for v := range row {
			row[v] = p.Dist(loc, sites[v])
		}
	}

	// Enumerate submasks of Goal in increasing popcount order.
	subs := referenceSubmasks(sc.subs[:0], p.Goal)
	sc.subs = subs
	avail, availCh := sc.avail, sc.availCh
	for _, s := range subs {
		base := int(s) * m
		av := avail[base : base+m]
		ch := availCh[base : base+m]
		for v := range av {
			av[v], ch[v] = inf, math.MinInt32
		}
		// Direct inputs.
		for i := range ins {
			if ins[i].Mask != s {
				continue
			}
			rate := ins[i].Rate * inputWidth(&ins[i], p.Widths)
			irow := sc.idist[i*m : i*m+m]
			for v := range av {
				if c := rate * irow[v]; c < av[v] {
					av[v], ch[v] = c, int32(i)
				}
			}
		}
		if s.Count() >= 2 {
			oc := sc.opCost[base : base+m]
			os := sc.opSplit[base : base+m]
			low := s & -s
			for v := 0; v < m; v++ {
				best, bestSplit := inf, query.Mask(0)
				for m1 := (s - 1) & s; m1 > 0; m1 = (m1 - 1) & s {
					if m1&low == 0 {
						continue // canonical: left part holds the lowest bit
					}
					m2 := s ^ m1
					a1, a2 := avail[int(m1)*m+v], avail[int(m2)*m+v]
					if a1 == inf || a2 == inf {
						continue
					}
					if c := a1 + a2; c < best {
						best, bestSplit = c, m1
					}
				}
				oc[v], os[v] = best, bestSplit
			}
			// Fold "operator at u, result shipped to v" into avail.
			rate := p.Rates.Rate(s) * p.Widths.Width(s)
			for u := 0; u < m; u++ {
				ocu := oc[u]
				if ocu == inf {
					continue
				}
				srow := sc.sdist[u*m : u*m+m]
				for v := range av {
					if c := ocu + rate*srow[v]; c < av[v] {
						av[v], ch[v] = c, int32(-(u + 2))
					}
				}
			}
		}
	}

	// Choose the root realization.
	rate := p.Rates.Rate(p.Goal) * p.Widths.Width(p.Goal)
	best := inf
	bestInput, bestSite := -1, -1
	for i := range ins {
		if ins[i].Mask != p.Goal {
			continue
		}
		c := 0.0
		if p.Deliver {
			c = ins[i].Rate * inputWidth(&ins[i], p.Widths) * p.Dist(ins[i].Loc, p.Sink)
		}
		if c < best {
			best, bestInput, bestSite = c, i, -1
		}
	}
	if p.Goal.Count() >= 2 {
		gbase := int(p.Goal) * m
		for u := 0; u < m; u++ {
			ocu := sc.opCost[gbase+u]
			if ocu == inf {
				continue
			}
			c := ocu
			if p.Deliver {
				c += rate * p.Dist(sites[u], p.Sink)
			}
			if c < best {
				best, bestInput, bestSite = c, -1, u
			}
		}
	}
	if best == inf {
		return nil, 0, fmt.Errorf("core: goal %b unachievable from available inputs", p.Goal)
	}
	if !buildPlan {
		return nil, best, nil
	}

	r := rebuilder{rates: p.Rates, widths: p.Widths, ins: ins, sites: sites, m: m, availCh: sc.availCh, opSplit: sc.opSplit}
	var root *query.PlanNode
	if bestInput >= 0 {
		root = r.leaf(ins[bestInput])
	} else {
		root = r.buildOp(p.Goal, bestSite)
	}
	return root, best, nil
}

// referenceSubmasks is the pre-rework sub-mask enumeration: descending
// numeric order, then an insertion sort by popcount.
func referenceSubmasks(subs []query.Mask, goal query.Mask) []query.Mask {
	for s := goal; s > 0; s = (s - 1) & goal {
		subs = append(subs, s)
	}
	// Insertion sort by popcount (lists are tiny: 2^K−1 entries).
	for i := 1; i < len(subs); i++ {
		for j := i; j > 0 && subs[j].Count() < subs[j-1].Count(); j-- {
			subs[j], subs[j-1] = subs[j-1], subs[j]
		}
	}
	return subs
}

// tieFixture builds a random Problem designed to tie: distances are small
// integers with zero-distance pairs (co-located nodes) or, when a real
// snapshot is wanted, shortest paths over links costing 1 or 2; rates and
// widths come from a three-value set; input masks repeat at different
// locations; sites may repeat. The second result is the snapshot Dist
// reads, nil for the synthetic metric.
func tieFixture(rng *rand.Rand) (Problem, *netgraph.Paths) {
	n := 3 + rng.Intn(46)
	var paths *netgraph.Paths
	var dist query.DistFunc
	if rng.Intn(2) == 0 {
		g := netgraph.Random(n, 2.2, netgraph.CostRange{Lo: 1, Hi: 1}, netgraph.CostRange{}, rng)
		for _, l := range g.Links() {
			if rng.Intn(2) == 0 {
				g.SetLinkCost(l.A, l.B, 2)
			}
		}
		paths = g.ShortestPaths(netgraph.MetricCost)
		dist = paths.Dist
	} else {
		pos := make([]int, n)
		for v := range pos {
			pos[v] = rng.Intn(4)
		}
		dist = func(a, b netgraph.NodeID) float64 { return math.Abs(float64(pos[a] - pos[b])) }
	}

	k := 1 + rng.Intn(7)
	goal := query.FullMask(k)
	pick := func() float64 { return []float64{1, 2, 4}[rng.Intn(3)] }
	rates := make(query.RateTable, 1<<uint(k))
	for s := range rates {
		rates[s] = pick()
	}
	var widths query.WidthTable
	if rng.Intn(2) == 0 {
		widths = make(query.WidthTable, 1<<uint(k))
		for s := range widths {
			widths[s] = pick()
		}
	}

	var inputs []query.Input
	add := func(m query.Mask, derived bool) {
		in := query.Input{Mask: m, Rate: rates[m], Loc: netgraph.NodeID(rng.Intn(n)), Derived: derived,
			Sig: fmt.Sprintf("%b/%d", m, len(inputs))}
		if derived && rng.Intn(3) == 0 {
			in.Width = pick()
		}
		inputs = append(inputs, in)
	}
	for i := 0; i < k; i++ {
		add(1<<uint(i), false)
		if rng.Intn(3) == 0 {
			add(1<<uint(i), false) // the same stream again, elsewhere
		}
	}
	for extra := rng.Intn(4); extra > 0; extra-- {
		m := query.Mask(1+rng.Intn(int(goal))) & goal
		add(m, true)
		if rng.Intn(2) == 0 {
			add(m, true)
		}
	}
	if k >= 2 && rng.Intn(4) == 0 {
		// Drop one base stream so some sub-masks are infeasible; keep the
		// goal coverable through a derived input over it.
		gone := query.Mask(1) << uint(rng.Intn(k))
		inputs = slices.DeleteFunc(inputs, func(in query.Input) bool { return in.Mask == gone })
		add(gone|query.Mask(1)<<uint(rng.Intn(k)), true)
	}

	m := 1 + rng.Intn(40)
	if m > n {
		m = n
	}
	perm := rng.Perm(n)
	sites := make([]netgraph.NodeID, 0, m+3)
	for _, v := range perm[:m] {
		sites = append(sites, netgraph.NodeID(v))
	}
	if rng.Intn(3) == 0 {
		for d := 1 + rng.Intn(3); d > 0; d-- {
			sites = append(sites, sites[rng.Intn(len(sites))])
		}
	}

	p := Problem{
		Inputs: inputs, Sites: sites, Dist: dist, Rates: rates, Widths: widths,
		Goal: goal, Sink: netgraph.NodeID(rng.Intn(n)), Deliver: rng.Intn(2) == 0,
	}
	return p, paths
}

// TestSolveMatchesReference is the kernel's plan-identity oracle: on
// instances built to tie, Solve must return the plan the pre-rework loop
// nest returns — same tree, same placements, same chosen inputs — and the
// same cost bit for bit, whether the site block is gathered from a
// snapshot or materialized through Dist, and must agree with the
// brute-force enumerator on cost wherever that is feasible.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	naive, gathered, infeasible := 0, 0, 0
	for i := 0; i < 3000; i++ {
		p, paths := tieFixture(rng)
		wantPlan, wantCost, wantErr := referenceSolve(p, true)
		variants := []Problem{p}
		if paths != nil {
			g := p
			g.SitePaths = paths
			variants = append(variants, g)
			gathered++
		}
		for _, v := range variants {
			plan, cost, err := Solve(v)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("instance %d: Solve err %v, reference err %v", i, err, wantErr)
			}
			if err != nil {
				continue
			}
			if math.Float64bits(cost) != math.Float64bits(wantCost) || plan.String() != wantPlan.String() {
				t.Fatalf("instance %d (gather=%v): Solve chose\n  %s at %v\nreference chose\n  %s at %v",
					i, v.SitePaths != nil, plan, cost, wantPlan, wantCost)
			}
		}
		if wantErr != nil {
			infeasible++
			continue
		}
		if p.Goal.Count() <= 4 && len(p.Sites) <= 4 && len(p.Inputs) <= 7 {
			_, naiveCost, _, err := NaiveSolve(p)
			if err != nil || math.Abs(naiveCost-wantCost) > 1e-9*(1+wantCost) {
				t.Fatalf("instance %d: NaiveSolve = %v, %v; DP says %v", i, naiveCost, err, wantCost)
			}
			naive++
		}
	}
	if naive < 100 || gathered < 1000 {
		t.Errorf("coverage too thin: %d naive, %d gathered of 3000 (%d infeasible)",
			naive, gathered, infeasible)
	}
}
