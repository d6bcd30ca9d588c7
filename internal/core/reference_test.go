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

// The reference kernel's slab helpers, by their names at the rework.
var growFloats, growInt32, growMasks = grow[float64], grow[int32], grow[query.Mask]

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
	paths, dist := tieMetric(rng, n)

	k := 1 + rng.Intn(7)
	goal := query.FullMask(k)
	rates, widths, pick := tieTables(rng, k)

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

	p := Problem{
		Inputs: inputs, Sites: tieSites(rng, n), Dist: dist, Rates: rates, Widths: widths,
		Goal: goal, Sink: netgraph.NodeID(rng.Intn(n)), Deliver: rng.Intn(2) == 0,
	}
	return p, paths
}

// tieMetric draws tieFixture's metric over n nodes: shortest paths over
// links costing 1 or 2 (returned, so a variant can gather from them), or
// small integer positions on a line with co-located nodes.
func tieMetric(rng *rand.Rand, n int) (*netgraph.Paths, query.DistFunc) {
	if rng.Intn(2) == 0 {
		g := netgraph.Random(n, 2.2, netgraph.CostRange{Lo: 1, Hi: 1}, netgraph.CostRange{}, rng)
		for _, l := range g.Links() {
			if rng.Intn(2) == 0 {
				g.SetLinkCost(l.A, l.B, 2)
			}
		}
		paths := g.ShortestPaths(netgraph.MetricCost)
		return paths, paths.Dist
	}
	pos := make([]int, n)
	for v := range pos {
		pos[v] = rng.Intn(4)
	}
	return nil, func(a, b netgraph.NodeID) float64 { return math.Abs(float64(pos[a] - pos[b])) }
}

// tieTables draws rate and (half the time) width tables over k positions
// from a three-value set, and returns the draw for inputs' own widths.
func tieTables(rng *rand.Rand, k int) (query.RateTable, query.WidthTable, func() float64) {
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
	return rates, widths, pick
}

// tieSites draws up to 40 distinct sites out of n nodes, then at times
// repeats a few of them.
func tieSites(rng *rand.Rand, n int) []netgraph.NodeID {
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
	return sites
}

// viewFixture builds a random Problem shaped like a Top-Down view: the
// goal is two to seven scattered positions out of seven, and the inputs are
// two to four composite masks dealt from a shuffle of those positions, so
// they interleave (0b0101 / 0b1010). A third of the time neighbouring
// parts are merged pairwise, so the inputs overlap and, for three parts,
// cover the goal with no disjoint union; a composite may repeat at another
// location; and single-bit inputs join for some positions or for all of
// them (the kernel's fast path).
func viewFixture(rng *rand.Rand) (Problem, *netgraph.Paths) {
	n := 3 + rng.Intn(46)
	paths, dist := tieMetric(rng, n)
	const k = 7
	rates, widths, pick := tieTables(rng, k)

	var goal query.Mask
	for goal.Count() < 2 {
		goal = query.Mask(rng.Intn(1 << k))
	}
	pos := goal.Positions()
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	parts := make([]query.Mask, min(2+rng.Intn(3), len(pos)))
	for i, b := range pos {
		parts[i%len(parts)] |= 1 << uint(b)
	}
	if len(parts) >= 3 && rng.Intn(3) == 0 {
		for i := 0; i+1 < len(parts); i++ {
			parts[i] |= parts[i+1]
		}
		parts = parts[:len(parts)-1]
	}

	var inputs []query.Input
	add := func(m query.Mask, derived bool) {
		in := query.Input{Mask: m, Rate: rates[m], Loc: netgraph.NodeID(rng.Intn(n)), Derived: derived,
			Sig: fmt.Sprintf("%b/%d", m, len(inputs))}
		if rng.Intn(3) == 0 {
			in.Width = pick()
		}
		inputs = append(inputs, in)
	}
	for _, m := range parts {
		add(m, rng.Intn(2) == 0)
		if rng.Intn(3) == 0 {
			add(m, true) // the same composite again, elsewhere
		}
	}
	switch rng.Intn(3) {
	case 1:
		for _, b := range goal.Positions() {
			if rng.Intn(2) == 0 {
				add(1<<uint(b), false)
			}
		}
	case 2:
		for _, b := range goal.Positions() {
			add(1<<uint(b), false)
		}
	}
	rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })

	p := Problem{
		Inputs: inputs, Sites: tieSites(rng, n), Dist: dist, Rates: rates, Widths: widths,
		Goal: goal, Sink: netgraph.NodeID(rng.Intn(n)), Deliver: rng.Intn(2) == 0,
	}
	return p, paths
}

// matchReference fails t unless Solve returns what referenceSolve returns
// on p — the same plan.String(), the same cost bit for bit, or the same
// error text — both through Dist and, when paths is the snapshot Dist
// reads, gathering the site block from it. Failures name the instance.
// It returns the reference's cost and error.
func matchReference(t testing.TB, instance int, p Problem, paths *netgraph.Paths) (float64, error) {
	t.Helper()
	wantPlan, wantCost, wantErr := referenceSolve(p, true)
	variants := []Problem{p}
	if paths != nil {
		g := p
		g.SitePaths = paths
		variants = append(variants, g)
	}
	for _, v := range variants {
		plan, cost, err := Solve(v)
		if err != nil || wantErr != nil {
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("instance %d (gather=%v): Solve err %v, reference err %v", instance, v.SitePaths != nil, err, wantErr)
			}
			continue
		}
		if math.Float64bits(cost) != math.Float64bits(wantCost) || plan.String() != wantPlan.String() {
			t.Fatalf("instance %d (gather=%v): Solve chose\n  %s at %v\nreference chose\n  %s at %v",
				instance, v.SitePaths != nil, plan, cost, wantPlan, wantCost)
		}
	}
	return wantCost, wantErr
}

// TestSolveMatchesReference is the kernel's plan-identity oracle: on
// instances built to tie, Solve must return the plan the pre-rework loop
// nest returns — same tree, same placements, same chosen inputs — and the
// same cost bit for bit (or the same error), whether the site block is
// gathered from a snapshot or materialized through Dist, and must agree
// with the brute-force enumerator on cost wherever that is feasible. Half
// the instances are tieFixture's, over base streams and derived inputs;
// the rest are viewFixture's Top-Down view shapes, where most sub-masks
// cannot be built and the kernel skips their rows.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	naive, gathered, infeasible := 0, 0, 0
	for i := 0; i < 3000; i++ {
		p, paths := tieFixture(rng)
		if paths != nil {
			gathered++
		}
		wantCost, wantErr := matchReference(t, i, p, paths)
		if wantErr != nil {
			infeasible++
			continue
		}
		if matchNaive(t, i, p, wantCost) {
			naive++
		}
	}
	if naive < 100 || gathered < 1000 {
		t.Errorf("coverage too thin: %d naive, %d gathered of 3000 (%d infeasible)",
			naive, gathered, infeasible)
	}

	var shapes struct{ fast, skipping, unachievable, naive int }
	sc := new(solveScratch)
	for i := 0; i < 3000; i++ {
		p, paths := viewFixture(rng)
		wantCost, err := matchReference(t, 3000+i, p, paths)
		switch {
		case err != nil:
			shapes.unachievable++
			continue
		case sc.markRealizable(p.Inputs, p.Goal):
			shapes.fast++
		default:
			shapes.skipping++
		}
		if matchNaive(t, 3000+i, p, wantCost) {
			shapes.naive++
		}
	}
	if shapes.fast < 300 || shapes.skipping < 300 || shapes.unachievable < 100 || shapes.naive < 100 {
		t.Errorf("view coverage too thin: %+v of 3000", shapes)
	}
}

// matchNaive holds the DP's cost on p to the brute-force enumerator's
// where enumerating is cheap, and reports whether it did.
func matchNaive(t *testing.T, instance int, p Problem, wantCost float64) bool {
	t.Helper()
	if p.Goal.Count() > 4 || len(p.Sites) > 4 || len(p.Inputs) > 7 {
		return false
	}
	_, naiveCost, _, err := NaiveSolve(p)
	if err != nil || math.Abs(naiveCost-wantCost) > 1e-9*(1+wantCost) {
		t.Fatalf("instance %d: NaiveSolve = %v, %v; DP says %v", instance, naiveCost, err, wantCost)
	}
	return true
}

// disjointUnions returns every mask that some disjoint union of the inputs'
// masks forms, grown by closure — not by the kernel's canonical-split
// recursion.
func disjointUnions(ins []query.Input) map[query.Mask]bool {
	set := make(map[query.Mask]bool)
	for _, in := range ins {
		set[in.Mask] = true
	}
	for grew := true; grew; {
		grew = false
		for a := range set {
			for _, in := range ins {
				if a&in.Mask == 0 && !set[a|in.Mask] {
					set[a|in.Mask], grew = true, true
				}
			}
		}
	}
	return set
}

// TestRealizableRowsAreDisjointUnions holds markRealizable to its
// definition: a sub-mask of the goal is realizable exactly when a disjoint
// union of usable inputs forms it, and the fast path (nothing written) is
// taken exactly when every sub-mask is.
func TestRealizableRowsAreDisjointUnions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	skipping := 0
	for i := 0; i < 2000; i++ {
		fixture := viewFixture
		if i%4 == 0 {
			fixture = tieFixture
		}
		p, _ := fixture(rng)
		ins := slices.DeleteFunc(slices.Clone(p.Inputs), func(in query.Input) bool { return in.Mask&p.Goal != in.Mask })
		want := disjointUnions(ins)
		sc := new(solveScratch)
		all := sc.markRealizable(ins, p.Goal)
		if !all {
			skipping++
		}
		for s := nextSubmask(0, p.Goal); s != 0; s = nextSubmask(s, p.Goal) {
			if got := all || sc.realizable[s]; got != want[s] {
				t.Fatalf("instance %d: goal %b: sub-mask %b realizable = %v (fast path %v), want %v",
					i, p.Goal, s, got, all, want[s])
			}
		}
	}
	if skipping < 500 {
		t.Errorf("only %d of 2000 instances left the fast path", skipping)
	}
}

// FuzzSolve decodes bytes into a Top-Down-shaped Problem (fuzzProblem) and
// holds Solve to referenceSolve on it, as TestSolveMatchesReference does.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{0x0f, 2, 0x05, 0x0a, 3, 1, 2})
	f.Add([]byte{0x07, 3, 0x03, 0x06, 0x01, 9, 4, 4, 0xff})
	f.Add([]byte{0x3f, 5, 0x15, 0x2a, 0x15, 0x01, 0x30, 20, 7, 3, 1, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, paths := fuzzProblem(data)
		matchReference(t, 0, p, paths)
	})
}

// fuzzProblem decodes data, read as a stream that yields zeros once
// spent, into a Problem: a goal over up to seven positions; one to six
// inputs whose masks are taken from the bytes and clipped to the goal, so
// they interleave, overlap and repeat freely, each at a byte-chosen node
// with a rate and width from {1, 2, 4}; one to sixteen byte-chosen sites,
// repeats allowed; and a ring of 2–24 nodes whose links cost 1 or 2, whose
// shortest paths are the metric.
func fuzzProblem(data []byte) (Problem, *netgraph.Paths) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	vals := []float64{1, 2, 4}
	goal := query.Mask(next()) & query.FullMask(7)
	if goal == 0 {
		goal = 1
	}
	n := 2 + next()%23
	rates := make(query.RateTable, 1<<7)
	for s := range rates {
		rates[s] = vals[(int(s)*7+n)%3]
	}
	var inputs []query.Input
	for c := 1 + next()%6; c > 0; c-- {
		m := query.Mask(next()) & goal
		if m == 0 {
			m = goal & -goal
		}
		inputs = append(inputs, query.Input{Mask: m, Rate: vals[next()%3], Loc: netgraph.NodeID(next() % n),
			Width: float64(next() % 3), Sig: fmt.Sprintf("%b/%d", m, c)})
	}
	sites := make([]netgraph.NodeID, 1+next()%16)
	for i := range sites {
		sites[i] = netgraph.NodeID(next() % n)
	}
	g := netgraph.New(n)
	for v := 0; v+1 < n; v++ {
		g.MustAddLink(netgraph.NodeID(v), netgraph.NodeID(v+1), float64(1+next()%2), 0)
	}
	if n > 2 {
		g.MustAddLink(netgraph.NodeID(n-1), 0, float64(1+next()%2), 0)
	}
	paths := g.ShortestPaths(netgraph.MetricCost)
	flags := next()
	var widths query.WidthTable
	if flags&1 != 0 {
		widths = make(query.WidthTable, 1<<7)
		for s := range widths {
			widths[s] = vals[int(s)%3]
		}
	}
	return Problem{
		Inputs: inputs, Sites: sites, Dist: paths.Dist, Rates: rates, Widths: widths,
		Goal: goal, Sink: netgraph.NodeID(next() % n), Deliver: flags&2 != 0,
	}, paths
}
