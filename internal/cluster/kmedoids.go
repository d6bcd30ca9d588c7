// Package cluster implements capacity-constrained k-medoids clustering over
// an arbitrary distance oracle. The paper clusters network nodes by
// inter-node traversal cost using K-Means; traversal cost is a metric, not
// a vector space, so the standard adaptation is k-medoids: cluster centers
// are members ("medoids"), which also gives us the coordinator node of each
// network partition for free.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// DistFunc returns the distance between items i and j. It must be
// symmetric with zero self-distance.
type DistFunc func(i, j int) float64

// Result describes a clustering of items 0..n-1.
type Result struct {
	// Assign maps each item to its cluster index in [0, len(Medoids)).
	Assign []int
	// Medoids lists, for each cluster, the item serving as its center.
	Medoids []int
}

// Clusters returns the member lists, indexed by cluster, members sorted.
func (r Result) Clusters() [][]int {
	out := make([][]int, len(r.Medoids))
	for item, c := range r.Assign {
		out[c] = append(out[c], item)
	}
	for _, ms := range out {
		slices.Sort(ms)
	}
	return out
}

// Cost returns the total distance from each item to its medoid.
func (r Result) Cost(dist DistFunc) float64 {
	sum := 0.0
	for item, c := range r.Assign {
		sum += dist(item, r.Medoids[c])
	}
	return sum
}

// FarthestPointSeeds picks k well-spread items: the first uniformly at
// random, each subsequent one maximizing the distance to the closest
// already-chosen seed. This is the classic 2-approximation seeding for
// metric clustering and makes the hierarchy construction robust to the
// random seed.
func FarthestPointSeeds(n, k int, dist DistFunc, rng *rand.Rand) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	seeds := make([]int, 0, k)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	first := rng.Intn(n)
	seeds = append(seeds, first)
	for len(seeds) < k {
		last := seeds[len(seeds)-1]
		far, farD := -1, -1.0
		for i := 0; i < n; i++ {
			if d := dist(i, last); d < minDist[i] {
				minDist[i] = d
			}
			if minDist[i] > farD {
				far, farD = i, minDist[i]
			}
		}
		if farD <= 0 {
			// All remaining items coincide with a seed; fill arbitrarily.
			for i := 0; i < n && len(seeds) < k; i++ {
				if !contains(seeds, i) {
					seeds = append(seeds, i)
				}
			}
			break
		}
		seeds = append(seeds, far)
		minDist[far] = 0
	}
	return seeds
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// kmedoidsRounds bounds KMedoids' assign/update rounds.
const kmedoidsRounds = 8

// KMedoids clusters n items into k clusters of at most maxSize members
// each, minimizing total item-to-medoid distance. If k*maxSize < n it
// returns an error. It runs at most kmedoidsRounds assign/update rounds
// and stops early at a fixed point.
func KMedoids(n, k, maxSize int, dist DistFunc, rng *rand.Rand) (Result, error) {
	if n == 0 {
		return Result{}, nil
	}
	if k <= 0 {
		return Result{}, fmt.Errorf("cluster: k must be positive, got %d", k)
	}
	if maxSize <= 0 {
		return Result{}, fmt.Errorf("cluster: maxSize must be positive, got %d", maxSize)
	}
	if k > n {
		k = n
	}
	if k*maxSize < n {
		return Result{}, fmt.Errorf("cluster: %d clusters of <= %d cannot hold %d items", k, maxSize, n)
	}
	medoids := FarthestPointSeeds(n, k, dist, rng)
	var assign []int
	for round := 0; round < kmedoidsRounds; round++ {
		assign = capacityAssign(n, medoids, maxSize, dist)
		next := updateMedoids(n, assign, medoids, dist)
		if equalInts(next, medoids) {
			medoids = next
			break
		}
		medoids = next
	}
	assign = capacityAssign(n, medoids, maxSize, dist)
	return Result{Assign: assign, Medoids: medoids}, nil
}

// capacityAssign assigns each item to the nearest medoid with remaining
// capacity. Items are processed in increasing order of the gap between
// their best and second-best medoid ("regret"), so items that would suffer
// most from losing their preferred cluster are placed first.
func capacityAssign(n int, medoids []int, maxSize int, dist DistFunc) []int {
	k := len(medoids)
	type pref struct {
		item   int
		order  []int // medoid indices sorted by distance
		regret float64
	}
	prefs := make([]pref, n)
	orders := make([]int, n*k) // every item's order, carved from one array
	d := make([]float64, k)    // the current item's distance to each medoid
	for i := 0; i < n; i++ {
		order := orders[i*k : (i+1)*k : (i+1)*k]
		for c := range order {
			order[c] = c
			d[c] = dist(i, medoids[c])
		}
		slices.SortFunc(order, func(a, b int) int {
			if d[a] != d[b] {
				return cmp.Compare(d[a], d[b])
			}
			return a - b
		})
		regret := 0.0
		if k > 1 {
			regret = d[order[1]] - d[order[0]]
		}
		prefs[i] = pref{i, order, regret}
	}
	slices.SortStableFunc(prefs, func(a, b pref) int { return cmp.Compare(b.regret, a.regret) })

	assign := make([]int, n)
	load := make([]int, k)
	// Medoids always belong to their own cluster.
	placed := make([]bool, n)
	for c, m := range medoids {
		assign[m] = c
		load[c]++
		placed[m] = true
	}
	for _, p := range prefs {
		if placed[p.item] {
			continue
		}
		for _, c := range p.order {
			if load[c] < maxSize {
				assign[p.item] = c
				load[c]++
				placed[p.item] = true
				break
			}
		}
		if !placed[p.item] {
			// Unreachable when k*maxSize >= n, which KMedoids guarantees.
			panic("cluster: item could not be placed")
		}
	}
	return assign
}

func updateMedoids(n int, assign []int, medoids []int, dist DistFunc) []int {
	k := len(medoids)
	members := make([][]int, k)
	for i := 0; i < n; i++ {
		members[assign[i]] = append(members[assign[i]], i)
	}
	next := make([]int, k)
	for c := 0; c < k; c++ {
		if len(members[c]) == 0 {
			next[c] = medoids[c]
			continue
		}
		best, bestSum := members[c][0], math.Inf(1)
		for _, cand := range members[c] {
			sum := 0.0
			for _, o := range members[c] {
				sum += dist(cand, o)
			}
			if sum < bestSum {
				best, bestSum = cand, sum
			}
		}
		next[c] = best
	}
	return next
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Partition clusters n items under a hard size cap. The number of
// clusters adapts to the data: starting from the minimum k =
// ceil(n/maxSize), additional clusters are accepted while they cut the
// total item-to-medoid distance substantially, so natural network regions
// (stub domains) are not forced together just because the cap would
// allow it — matching the paper's observation that max_cs 32 on a
// 128-node transit-stub network yields ~26-node average clusters, not 32.
func Partition(n, maxSize int, dist DistFunc, rng *rand.Rand) (Result, error) {
	if maxSize <= 0 {
		return Result{}, fmt.Errorf("cluster: maxSize must be positive, got %d", maxSize)
	}
	if n == 0 {
		return Result{}, nil
	}
	kMin := (n + maxSize - 1) / maxSize
	if kMin <= 1 {
		// Everything fits in one cluster: this is a (potential) top level,
		// which must converge to a single cluster.
		return KMedoids(n, 1, maxSize, dist, rng)
	}
	best, err := KMedoids(n, kMin, maxSize, dist, rng)
	if err != nil {
		return Result{}, err
	}
	bestCost := best.Cost(dist)
	// A ≥25% cost reduction justifies one more cluster (one more
	// coordinator promoted, a slightly wider level above). Capping k at
	// n/2 guarantees each hierarchy level at least halves the node count,
	// so construction always converges.
	const improvement = 0.75
	kMax := kMin + 3
	if kMax > n/2 {
		kMax = n / 2
	}
	for k := kMin + 1; k <= kMax; k++ {
		cand, err := KMedoids(n, k, maxSize, dist, rng)
		if err != nil {
			return Result{}, err
		}
		c := cand.Cost(dist)
		if c >= bestCost*improvement {
			break
		}
		best, bestCost = cand, c
	}
	return best, nil
}
