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
		out[c] = append(out[c], item) // items come in increasing order
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

// solver clusters items 0..n-1 under one distance oracle. It gathers the
// distance column of each seed or medoid once, for every round of a
// KMedoids call and every candidate k of a Partition call, and keeps
// capacityAssign's buffers across rounds.
type solver struct {
	n     int
	dist  DistFunc
	cols  [][]float64 // cols[m][i] = dist(i, m); nil until m's first use
	mcols [][]float64 // the current medoids' columns
	order []int32     // order[i*k:(i+1)*k]: item i's medoids by (distance, index)
	d     []float64   // the distances of the item being ordered, in order
	recs  []regretRec
	load  []int
	// members[c] lists cluster c's items for updateMedoids.
	members [][]int
}

// regretRec is one item's place in the assignment order. It holds no
// pointer, so sorting moves 16 bytes per record and fires no GC write
// barrier.
type regretRec struct {
	item   int32
	regret float64
}

func newSolver(n int, dist DistFunc) *solver {
	return &solver{n: n, dist: dist, cols: make([][]float64, n)}
}

func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// col returns dist(i, m) for every item i.
func (s *solver) col(m int) []float64 {
	if s.cols[m] == nil {
		s.cols[m] = make([]float64, s.n)
		for i := range s.cols[m] {
			s.cols[m][i] = s.dist(i, m)
		}
	}
	return s.cols[m]
}

// seeds picks k well-spread items: the first uniformly at random, each
// subsequent one maximizing the distance to the closest already-chosen
// seed. This is the classic 2-approximation seeding for metric clustering
// and makes the hierarchy construction robust to the random seed.
func (s *solver) seeds(k int, rng *rand.Rand) []int {
	n := s.n
	if k = min(k, n); k <= 0 {
		return nil
	}
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	seeds := append(make([]int, 0, k), rng.Intn(n))
	for len(seeds) < k {
		col := s.col(seeds[len(seeds)-1])
		far, farD := -1, -1.0
		for i := 0; i < n; i++ {
			if d := col[i]; d < minDist[i] {
				minDist[i] = d
			}
			if minDist[i] > farD {
				far, farD = i, minDist[i]
			}
		}
		if farD <= 0 {
			// All remaining items coincide with a seed; fill arbitrarily.
			for i := 0; i < n && len(seeds) < k; i++ {
				if !slices.Contains(seeds, i) {
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

// kmedoidsRounds bounds KMedoids' assign/update rounds.
const kmedoidsRounds = 8

// KMedoids clusters n items into k clusters of at most maxSize members
// each, minimizing total item-to-medoid distance. If k*maxSize < n it
// returns an error. It runs at most kmedoidsRounds assign/update rounds
// and stops early at a fixed point.
func KMedoids(n, k, maxSize int, dist DistFunc, rng *rand.Rand) (Result, error) {
	return newSolver(n, dist).kmedoids(k, maxSize, rng)
}

func (s *solver) kmedoids(k, maxSize int, rng *rand.Rand) (Result, error) {
	n := s.n
	if n == 0 {
		return Result{}, nil
	}
	if k <= 0 {
		return Result{}, fmt.Errorf("cluster: k must be positive, got %d", k)
	}
	if maxSize <= 0 {
		return Result{}, fmt.Errorf("cluster: maxSize must be positive, got %d", maxSize)
	}
	if k = min(k, n); k*maxSize < n {
		return Result{}, fmt.Errorf("cluster: %d clusters of <= %d cannot hold %d items", k, maxSize, n)
	}
	medoids := s.seeds(k, rng)
	next, assign := make([]int, len(medoids)), make([]int, n)
	for round := 0; ; round++ {
		s.capacityAssign(medoids, maxSize, assign)
		if round == kmedoidsRounds {
			break
		}
		s.updateMedoids(assign, next)
		if slices.Equal(next, medoids) {
			break // a fixed point: assign already belongs to medoids
		}
		medoids, next = next, medoids
	}
	return Result{Assign: assign, Medoids: medoids}, nil
}

// capacityAssign writes into assign each item's nearest medoid with
// remaining capacity. Items are processed in decreasing order of the gap
// between their best and second-best medoid ("regret"), so items that
// would suffer most from losing their preferred cluster are placed first.
func (s *solver) capacityAssign(medoids []int, maxSize int, assign []int) {
	n, k := s.n, len(medoids)
	s.mcols, s.order, s.d = s.mcols[:0], resize(s.order, n*k), resize(s.d, k)
	s.recs, s.load = resize(s.recs, n), resize(s.load, k)
	for _, m := range medoids {
		s.mcols = append(s.mcols, s.col(m))
	}
	d := s.d
	for i := 0; i < n; i++ {
		// Insertion sort by (distance, index): c arrives in index order,
		// so it stops behind every equal distance.
		o := s.order[i*k : (i+1)*k]
		for c, col := range s.mcols {
			j := c
			for ; j > 0 && d[j-1] > col[i]; j-- {
				d[j], o[j] = d[j-1], o[j-1]
			}
			d[j], o[j] = col[i], int32(c)
		}
		regret := 0.0
		if k > 1 {
			regret = d[1] - d[0]
		}
		s.recs[i] = regretRec{int32(i), regret}
	}
	// Decreasing regret, then increasing item: the order a stable sort on
	// regret alone gives records that start in item order.
	slices.SortFunc(s.recs, func(a, b regretRec) int {
		if c := cmp.Compare(b.regret, a.regret); c != 0 {
			return c
		}
		return int(a.item - b.item)
	})

	clear(s.load)
	for i := range assign {
		assign[i] = -1
	}
	// Medoids always belong to their own cluster.
	for c, m := range medoids {
		assign[m] = c
		s.load[c]++
	}
	for _, r := range s.recs {
		i := int(r.item)
		if assign[i] >= 0 {
			continue // a medoid
		}
		for _, c := range s.order[i*k : (i+1)*k] {
			if s.load[c] < maxSize {
				assign[i] = int(c)
				s.load[c]++
				break
			}
		}
		if assign[i] < 0 {
			// Unreachable when k*maxSize >= n, which KMedoids guarantees.
			panic("cluster: item could not be placed")
		}
	}
}

// updateMedoids writes into next, for each cluster, the member with the
// least summed distance to the other members (the first such on ties).
// Every cluster holds at least its medoid.
func (s *solver) updateMedoids(assign, next []int) {
	s.members = resize(s.members, len(next))
	for c := range s.members {
		s.members[c] = s.members[c][:0]
	}
	for i, c := range assign {
		s.members[c] = append(s.members[c], i)
	}
	for c, ms := range s.members {
		best, bestSum := ms[0], math.Inf(1)
		for _, cand := range ms {
			sum := 0.0
			for _, o := range ms {
				sum += s.dist(cand, o)
			}
			if sum < bestSum {
				best, bestSum = cand, sum
			}
		}
		next[c] = best
	}
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
	s := newSolver(n, dist)
	kMin := (n + maxSize - 1) / maxSize
	if kMin <= 1 {
		// Everything fits in one cluster: this is a (potential) top level,
		// which must converge to a single cluster.
		return s.kmedoids(1, maxSize, rng)
	}
	best, err := s.kmedoids(kMin, maxSize, rng)
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
		cand, err := s.kmedoids(k, maxSize, rng)
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
