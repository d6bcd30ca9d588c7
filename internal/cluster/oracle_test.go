package cluster

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hnp/internal/netgraph"
)

// The functions below are FarthestPointSeeds, KMedoids, capacityAssign,
// updateMedoids and Partition as they stood before the assignment moved to
// pointer-free regret records, insertion-sorted medoid orders and cached
// distance columns, kept verbatim (renamed with an oracle prefix) as the
// differential reference: the product code must reproduce their
// assignments and medoids exactly, and draw the same random numbers.

func oracleFarthestPointSeeds(n, k int, dist DistFunc, rng *rand.Rand) []int {
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
				if !oracleContains(seeds, i) {
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

func oracleContains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func oracleKMedoids(n, k, maxSize int, dist DistFunc, rng *rand.Rand) (Result, error) {
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
	medoids := oracleFarthestPointSeeds(n, k, dist, rng)
	var assign []int
	for round := 0; round < kmedoidsRounds; round++ {
		assign = oracleCapacityAssign(n, medoids, maxSize, dist)
		next := oracleUpdateMedoids(n, assign, medoids, dist)
		if oracleEqualInts(next, medoids) {
			medoids = next
			break
		}
		medoids = next
	}
	assign = oracleCapacityAssign(n, medoids, maxSize, dist)
	return Result{Assign: assign, Medoids: medoids}, nil
}

func oracleCapacityAssign(n int, medoids []int, maxSize int, dist DistFunc) []int {
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

func oracleUpdateMedoids(n int, assign []int, medoids []int, dist DistFunc) []int {
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

func oracleEqualInts(a, b []int) bool {
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

func oraclePartition(n, maxSize int, dist DistFunc, rng *rand.Rand) (Result, error) {
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
		return oracleKMedoids(n, 1, maxSize, dist, rng)
	}
	best, err := oracleKMedoids(n, kMin, maxSize, dist, rng)
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
		cand, err := oracleKMedoids(n, k, maxSize, dist, rng)
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

// intMatrix turns fuzz bytes into a symmetric n×n distance matrix with a
// zero diagonal and values in 0..7, so distance ties and regret ties are
// common; a byte of 0xff becomes +Inf, whose regret Inf-Inf is NaN.
func intMatrix(n int, data []byte) DistFunc {
	m := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := 1.0
			if len(data) > 0 {
				b := data[(i*n+j)%len(data)]
				if b == 0xff {
					d = math.Inf(1)
				} else {
					d = float64(b % 8)
				}
			}
			m[i*n+j], m[j*n+i] = d, d
		}
	}
	return func(i, j int) float64 { return m[i*n+j] }
}

func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	if !slices.Equal(got.Assign, want.Assign) || !slices.Equal(got.Medoids, want.Medoids) {
		t.Fatalf("%s: got assign %v medoids %v, oracle assign %v medoids %v",
			what, got.Assign, got.Medoids, want.Assign, want.Medoids)
	}
}

func FuzzCapacityAssign(f *testing.F) {
	f.Add(uint8(10), uint8(3), uint8(1), int64(1), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add(uint8(24), uint8(4), uint8(2), int64(2), []byte{0, 0, 1, 1, 0xff, 2})
	f.Add(uint8(40), uint8(7), uint8(0), int64(3), []byte{7})
	f.Fuzz(func(t *testing.T, n8, k8, slack uint8, seed int64, data []byte) {
		n := int(n8)%48 + 1
		k := int(k8)%n + 1
		maxSize := (n+k-1)/k + int(slack)%3
		dist := intMatrix(n, data)

		medoids := rand.New(rand.NewSource(seed)).Perm(n)[:k]
		got := make([]int, n)
		newSolver(n, dist).capacityAssign(medoids, maxSize, got)
		want := oracleCapacityAssign(n, medoids, maxSize, dist)
		if !slices.Equal(got, want) {
			t.Fatalf("capacityAssign(medoids %v, cap %d) = %v, oracle %v", medoids, maxSize, got, want)
		}

		gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		gk, gerr := KMedoids(n, k, maxSize, dist, gotRng)
		wk, werr := oracleKMedoids(n, k, maxSize, dist, wantRng)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("KMedoids error %v, oracle %v", gerr, werr)
		}
		sameResult(t, "KMedoids", gk, wk)
		gp, gerr := Partition(n, maxSize, dist, gotRng)
		wp, werr := oraclePartition(n, maxSize, dist, wantRng)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("Partition error %v, oracle %v", gerr, werr)
		}
		sameResult(t, "Partition", gp, wp)
		if gotRng.Int63() != wantRng.Int63() {
			t.Fatal("the rng streams diverged")
		}
	})
}

// TestPartitionMatchesOracle clusters transit-stub networks level by level,
// as hierarchy.Build does, under ten rng seeds per network size.
func TestPartitionMatchesOracle(t *testing.T) {
	for _, tc := range []struct{ n, maxCS int }{{24, 8}, {128, 32}, {1024, 32}} {
		g := netgraph.MustTransitStub(tc.n, rand.New(rand.NewSource(int64(tc.n))))
		paths := g.ShortestPaths(netgraph.MetricCost)
		for seed := int64(0); seed < 10; seed++ {
			gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			nodes := make([]netgraph.NodeID, tc.n)
			for i := range nodes {
				nodes[i] = netgraph.NodeID(i)
			}
			for level := 1; ; level++ {
				dist := func(i, j int) float64 { return paths.Dist(nodes[i], nodes[j]) }
				got, err := Partition(len(nodes), tc.maxCS, dist, gotRng)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oraclePartition(len(nodes), tc.maxCS, dist, wantRng)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("n=%d seed=%d level %d", tc.n, seed, level), got, want)
				if len(want.Medoids) == 1 {
					break
				}
				coords := make([]netgraph.NodeID, len(want.Medoids))
				for c, m := range want.Medoids {
					coords[c] = nodes[m]
				}
				nodes = coords
			}
			if gotRng.Int63() != wantRng.Int63() {
				t.Fatalf("n=%d seed=%d: the rng streams diverged", tc.n, seed)
			}
		}
	}
}
