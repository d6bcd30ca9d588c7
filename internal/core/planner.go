// Package core implements the paper's optimization algorithms: the joint
// plan+placement search performed inside one cluster (the building block
// both heuristics share), the Top-Down and Bottom-Up hierarchical
// algorithms, and the exhaustive/DP optimal baseline.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// Problem is one joint plan+placement search: cover Goal by joining the
// available Inputs, placing every operator on one of Sites, minimizing
// communication cost per unit time under Dist. Derived inputs model
// operator reuse: they arrive free of upstream cost.
type Problem struct {
	// Inputs are the available streams. Inputs whose mask is not a subset
	// of Goal are ignored. Several inputs may cover the same mask (e.g. a
	// base pair and an advertised derived stream); the search picks freely.
	Inputs []query.Input
	// Sites are the candidate processing nodes for operators. Every ID
	// must lie in [0, maxSiteID); Solve and NaiveSolve reject others.
	Sites []netgraph.NodeID
	// Dist measures traversal cost between physical nodes. It must be a
	// metric (shortest-path costs are); relaying through intermediate
	// sites is therefore never modeled explicitly.
	Dist query.DistFunc
	// SitePaths, when non-nil, is the caller's promise that
	// Dist(a, b) == SitePaths.Dist(a, b) for every pair of Sites: Solve
	// then gathers the site-to-site block out of the snapshot's rows
	// instead of calling Dist once per pair. Distances from input
	// locations and to Sink always go through Dist. NaiveSolve ignores it.
	SitePaths *netgraph.Paths
	// Rates gives the expected output rate of every sub-join.
	Rates query.RateTable
	// Widths gives the byte width of every sub-join's output tuples; nil
	// means no width information and every edge prices at rate×distance,
	// the pre-schema model. With widths, every edge prices at
	// rate×width×distance, so the search trades placements on actual
	// bytes-on-wire.
	Widths query.WidthTable
	// Goal is the set of source positions the plan must cover.
	Goal query.Mask
	// Sink receives the root output when Deliver is set; with Deliver
	// false the root's location is chosen to minimize internal cost only
	// and no delivery edge is costed.
	Sink    netgraph.NodeID
	Deliver bool
}

const inf = math.MaxFloat64

// solveScratch holds every buffer one DP run needs, pooled so repeated
// per-cluster solves (Top-Down recursion, Bottom-Up level sweeps, the
// figure experiments re-planning hundreds of deployments) stop allocating.
// All DP state lives in flat contiguous slabs indexed by int(S)*m+v — one
// cache-friendly block per table instead of a fresh []float64 per
// sub-cluster mask.
type solveScratch struct {
	ins []query.Input // usable inputs (masks ⊆ goal)

	// Materialized distances, probed instead of calling Problem.Dist:
	// sdist is the m×m site-to-site matrix, whose row u is gathered the
	// first time the fold reads it (sdistSet[u] marks it this solve), and
	// idist the len(ins)×m input-location-to-site matrix.
	sdist    []float64
	sdistSet []bool
	idist    []float64

	// realizable[S] marks the sub-masks some disjoint union of inputs
	// builds; it is not written when every sub-mask is (markRealizable).
	realizable []bool

	// DP tables, slab-indexed by int(S)*m+v.
	avail   []float64    // cheapest way to have sub-join S at site v
	availCh []int32      // >=0: input index; <0: -(u+2) op at site u
	opCost  []float64    // op producing S placed at v
	opSplit []query.Mask // left part of the best split (holds lowest bit)
}

var solvePool = sync.Pool{New: func() interface{} { return new(solveScratch) }}

// grow returns s resized to n, reallocating only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Solve finds the minimum-cost plan for p using dynamic programming over
// source subsets: avail[S][v] is the cheapest way to have the sub-join S
// materialized at site v, either shipped from an input or produced by an
// operator placed at some site. The DP examines exactly the solutions an
// exhaustive tree×placement enumeration would (validated against the
// naive enumerator in tests) at a fraction of the time.
func Solve(p Problem) (*query.PlanNode, float64, error) {
	sc := solvePool.Get().(*solveScratch)
	plan, cost, err := sc.solve(p)
	solvePool.Put(sc)
	return plan, cost, err
}

// solve runs the DP inside sc's buffers. The returned plan is freshly
// allocated and shares nothing with sc, so the caller can return sc to the
// pool immediately. DESIGN "DP kernel" has the table layout and the
// exactness argument for every shortcut taken below.
func (sc *solveScratch) solve(p Problem) (*query.PlanNode, float64, error) {
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
	sc.avail = grow(sc.avail, slab)
	sc.availCh = grow(sc.availCh, slab)
	sc.opCost = grow(sc.opCost, slab)
	sc.opSplit = grow(sc.opSplit, slab)
	// Only rows of realizable sub-masks of Goal are written and read, so
	// the slabs need no clearing between runs.
	all := sc.markRealizable(ins, p.Goal)

	sc.sdist = grow(sc.sdist, m*m)
	sc.sdistSet = grow(sc.sdistSet, m)
	clear(sc.sdistSet)
	sc.idist = grow(sc.idist, len(ins)*m)
	for i := range ins {
		row := sc.idist[i*m : i*m+m]
		loc := ins[i].Loc
		for v := range row {
			row[v] = p.Dist(loc, sites[v])
		}
	}

	// Sub-masks in ascending numeric order: every proper sub-mask of s is
	// numerically smaller than s, so its rows are final when s reads them.
	// An unrealizable row would be inf at every site and so can move no
	// sum under strict <: it is skipped, as is every split with an
	// unrealizable half.
	avail, availCh := sc.avail, sc.availCh
	for s := nextSubmask(0, p.Goal); s != 0; s = nextSubmask(s, p.Goal) {
		if !all && !sc.realizable[s] {
			continue
		}
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
		if s.Count() < 2 {
			continue
		}

		// Split search, split-major: each split adds two contiguous avail
		// rows into the running per-site best. A site still sees the splits
		// in the same order under the same strict <, so it keeps the same
		// one. No per-site infeasibility test: inf is MaxFloat64 and costs
		// are non-negative, so a sum with an inf term is never < oc[v].
		oc := sc.opCost[base : base+m]
		os := sc.opSplit[base : base+m]
		for v := range oc {
			oc[v], os[v] = inf, 0
		}
		low := s & -s
		for m1 := (s - 1) & s; m1 > 0; m1 = (m1 - 1) & s {
			if m1&low == 0 {
				continue // canonical: left part holds the lowest bit
			}
			m2 := s ^ m1
			if !all && !(sc.realizable[m1] && sc.realizable[m2]) {
				continue
			}
			a1 := avail[int(m1)*m : int(m1)*m+m]
			a2 := avail[int(m2)*m : int(m2)*m+m]
			for v := range oc {
				if c := a1[v] + a2[v]; c < oc[v] {
					oc[v], os[v] = c, m1
				}
			}
		}

		// Fold "operator at u, result shipped to v" into avail. With u* the
		// cheapest operator row and far its farthest shipment, every site
		// ends at or below oc[u*]+rate·far; a row whose operator alone
		// costs strictly more exceeds the final minimum at every site, so
		// it is nobody's argmin, ties included, and is skipped (as is an
		// infeasible row, which offers nothing below inf).
		rate := p.Rates.Rate(s) * p.Widths.Width(s)
		ustar := 0
		for u := range oc {
			if oc[u] < oc[ustar] {
				ustar = u
			}
		}
		far := 0.0
		for _, d := range sc.siteRow(&p, sites, ustar) {
			if d > far {
				far = d
			}
		}
		bound := oc[ustar] + rate*far
		for u, ocu := range oc {
			if ocu > bound || ocu == inf {
				continue
			}
			srow := sc.siteRow(&p, sites, u)
			for v := range av {
				if c := ocu + rate*srow[v]; c < av[v] {
					av[v], ch[v] = c, int32(-(u + 2))
				}
			}
		}
	}

	// Choose the root realization (an unrealizable goal has no operator row).
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
	if p.Goal.Count() >= 2 && (all || sc.realizable[p.Goal]) {
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

	r := rebuilder{rates: p.Rates, widths: p.Widths, ins: ins, sites: sites, m: m, availCh: sc.availCh, opSplit: sc.opSplit}
	var root *query.PlanNode
	if bestInput >= 0 {
		root = r.leaf(ins[bestInput])
	} else {
		root = r.buildOp(p.Goal, bestSite)
	}
	return root, best, nil
}

// markRealizable reports whether every sub-mask of goal is realizable —
// some disjoint union of ins builds it — which holds when every bit of goal
// has a single-bit input. Otherwise it records in sc.realizable, in the
// DP's ascending order, which sub-masks are. S is realizable when an
// input's mask is exactly S or S splits canonically (the left part holds
// S's lowest bit) into two realizable halves; equivalently, when some
// input holding S's lowest bit lies inside S and is all of S or leaves a
// realizable rest — the input of the union that holds that bit. The
// second form costs one probe per input, not one per split.
func (sc *solveScratch) markRealizable(ins []query.Input, goal query.Mask) bool {
	singles := query.Mask(0)
	for i := range ins {
		if ins[i].Mask.Count() == 1 {
			singles |= ins[i].Mask
		}
	}
	if singles == goal {
		return true
	}
	sc.realizable = grow(sc.realizable, 1<<uint(bits.Len32(uint32(goal))))
	for s := nextSubmask(0, goal); s != 0; s = nextSubmask(s, goal) {
		low, ok := s&-s, false
		for i := 0; i < len(ins) && !ok; i++ {
			a := ins[i].Mask
			ok = a&low != 0 && a&s == a && (a == s || sc.realizable[s^a])
		}
		sc.realizable[s] = ok
	}
	return false
}

// siteRow returns row u of the site-to-site block, gathering it the first
// time this solve reads it: out of the snapshot's rows when the caller
// vouches for it, through Dist otherwise.
func (sc *solveScratch) siteRow(p *Problem, sites []netgraph.NodeID, u int) []float64 {
	m := len(sites)
	row := sc.sdist[u*m : u*m+m]
	if sc.sdistSet[u] {
		return row
	}
	sc.sdistSet[u] = true
	su := sites[u]
	if p.SitePaths != nil {
		prow := p.SitePaths.Row(su)
		for v, sv := range sites {
			row[v] = prow[sv]
		}
		return row
	}
	for v, sv := range sites {
		row[v] = p.Dist(su, sv)
	}
	return row
}

// inputWidth returns the byte width of an input's tuples: its own
// declared width when set (a derived producer's actual output), else the
// width table's entry for its mask, else 1.
func inputWidth(in *query.Input, widths query.WidthTable) float64 {
	if in.Width > 0 {
		return in.Width
	}
	return widths.Width(in.Mask)
}

// rebuilder reconstructs the optimal plan from the flat DP tables. It must
// finish before the scratch returns to the pool; the tree it builds copies
// every input it references, so nothing aliases the scratch afterwards.
type rebuilder struct {
	rates   query.RateTable
	widths  query.WidthTable
	ins     []query.Input
	sites   []netgraph.NodeID
	m       int
	availCh []int32
	opSplit []query.Mask
}

// leaf builds a leaf node, stamping its tuple width from the table when
// the input carries none of its own.
func (r *rebuilder) leaf(in query.Input) *query.PlanNode {
	if in.Width == 0 && r.widths != nil {
		in.Width = r.widths.Width(in.Mask)
	}
	return query.Leaf(in)
}

// buildOp reconstructs the operator producing sub-join s placed at site
// index u.
func (r *rebuilder) buildOp(s query.Mask, u int) *query.PlanNode {
	m1 := r.opSplit[int(s)*r.m+u]
	m2 := s ^ m1
	l := r.buildAvail(m1, u)
	rt := r.buildAvail(m2, u)
	n := query.Join(l, rt, r.sites[u], r.rates.Rate(s))
	if r.widths != nil {
		n.Width = r.widths.Width(s)
	}
	return n
}

// buildAvail reconstructs the realization of sub-join s whose output feeds
// a consumer at site index v.
func (r *rebuilder) buildAvail(s query.Mask, v int) *query.PlanNode {
	ch := r.availCh[int(s)*r.m+v]
	if ch >= 0 {
		return r.leaf(r.ins[ch])
	}
	return r.buildOp(s, int(-(ch + 2)))
}

var dedupePool = sync.Pool{New: func() interface{} { return new(nodeBitset) }}

// maxSiteID bounds the site IDs a Problem may name: the duplicate check
// indexes a bitset by ID, and nothing builds a network near this size.
const maxSiteID = 1 << 22

// dedupeSites drops duplicate site IDs, preserving first-occurrence order.
// Site lists are almost always already unique (cluster members never
// repeat), so duplicates are detected with a pooled bitset and the input
// slice is returned as-is — no map, no copy, no allocation — unless a
// duplicate actually appears. Callers treat the result as read-only. An
// ID outside [0, maxSiteID) is an error.
func dedupeSites(sites []netgraph.NodeID) ([]netgraph.NodeID, error) {
	maxID := netgraph.NodeID(-1)
	for _, s := range sites {
		if s < 0 || s >= maxSiteID {
			return nil, fmt.Errorf("core: site ID %d outside [0, %d)", s, maxSiteID)
		}
		if s > maxID {
			maxID = s
		}
	}
	if len(sites) == 0 {
		return sites, nil
	}
	bs := dedupePool.Get().(*nodeBitset)
	bs.reset(int(maxID) + 1)
	out := sites
	unique := true
	for i, s := range sites {
		if bs.has(s) {
			if unique {
				// First duplicate: copy the unique prefix, compact from here.
				out = make([]netgraph.NodeID, i, len(sites))
				copy(out, sites[:i])
				unique = false
			}
			continue
		}
		bs.add(s)
		if !unique {
			out = append(out, s)
		}
	}
	dedupePool.Put(bs)
	return out, nil
}

// nextSubmask returns the sub-mask of goal that follows s in ascending
// numeric order, and 0 after goal itself; starting from 0 it walks every
// non-empty sub-mask once. Numeric order is a valid DP order because
// clearing bits only ever lowers a mask.
func nextSubmask(s, goal query.Mask) query.Mask { return (s - goal) & goal }
