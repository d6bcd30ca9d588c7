package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// lineDist is the metric |i-j|, i.e. items on a line.
func lineDist(i, j int) float64 { return math.Abs(float64(i - j)) }

func TestPartitionRespectsCapAndCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	res, err := Partition(100, 8, lineDist, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != 100 {
		t.Fatalf("assign len %d", len(res.Assign))
	}
	counts := map[int]int{}
	for i, c := range res.Assign {
		if c < 0 || c >= len(res.Medoids) {
			t.Fatalf("item %d assigned to bad cluster %d", i, c)
		}
		counts[c]++
	}
	for c, cnt := range counts {
		if cnt > 8 {
			t.Errorf("cluster %d has %d members > cap 8", c, cnt)
		}
	}
	if len(res.Medoids) != 13 { // ceil(100/8)
		t.Errorf("got %d clusters, want 13", len(res.Medoids))
	}
}

func TestMedoidBelongsToOwnCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	res, err := Partition(60, 10, lineDist, rng)
	if err != nil {
		t.Fatal(err)
	}
	for c, m := range res.Medoids {
		if res.Assign[m] != c {
			t.Errorf("medoid %d of cluster %d assigned to %d", m, c, res.Assign[m])
		}
	}
}

func TestSingleClusterWhenUnderCap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	res, err := Partition(5, 10, lineDist, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Medoids) != 1 {
		t.Fatalf("got %d clusters, want 1", len(res.Medoids))
	}
	if res.Medoids[0] != 2 {
		t.Errorf("medoid of 0..4 on a line = %d, want 2", res.Medoids[0])
	}
}

func TestLineClustersAreCompact(t *testing.T) {
	// On a line of 40 items with cap 10, total medoid cost of the result
	// should be far below a random assignment's expected cost.
	rng := rand.New(rand.NewSource(4))
	res, err := Partition(40, 10, lineDist, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Cost(lineDist)
	// Ideal: 4 contiguous blocks of 10, each cost 2*(1+2+3+4)+5=25 -> 100.
	if got > 180 {
		t.Errorf("clustering cost %g too high (ideal ~100)", got)
	}
}

func TestKMedoidsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, err := KMedoids(10, 2, 3, lineDist, rng); err == nil {
		t.Error("infeasible capacity accepted")
	}
	if _, err := KMedoids(10, 0, 3, lineDist, rng); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMedoids(10, 2, 0, lineDist, rng); err == nil {
		t.Error("maxSize=0 accepted")
	}
	if res, err := KMedoids(0, 2, 3, lineDist, rng); err != nil || len(res.Assign) != 0 {
		t.Errorf("empty input: %v %v", res, err)
	}
}

func TestFarthestPointSeedsSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	seeds := newSolver(100, lineDist).seeds(4, rng)
	if len(seeds) != 4 {
		t.Fatalf("got %d seeds", len(seeds))
	}
	seen := map[int]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
	// Seeds must include both extremes of the line (farthest-point property
	// guarantees the second seed is an endpoint relative to the first).
	hasLow, hasHigh := false, false
	for _, s := range seeds {
		if s < 20 {
			hasLow = true
		}
		if s >= 80 {
			hasHigh = true
		}
	}
	if !hasLow || !hasHigh {
		t.Errorf("seeds %v not spread across the line", seeds)
	}
}

func TestFarthestPointSeedsDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	zero := func(i, j int) float64 { return 0 }
	seeds := newSolver(5, zero).seeds(3, rng)
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds under zero metric", len(seeds))
	}
	if got := newSolver(3, lineDist).seeds(10, rng); len(got) != 3 {
		t.Errorf("k>n: got %d seeds, want 3", len(got))
	}
	if got := newSolver(3, lineDist).seeds(0, rng); got != nil {
		t.Errorf("k=0: got %v", got)
	}
}

func TestClustersViewMatchesAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	res, err := Partition(30, 7, lineDist, rng)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for c, members := range res.Clusters() {
		for _, m := range members {
			if res.Assign[m] != c {
				t.Errorf("member %d listed in cluster %d but assigned %d", m, c, res.Assign[m])
			}
		}
		total += len(members)
	}
	if total != 30 {
		t.Errorf("clusters cover %d items, want 30", total)
	}
}

// Property: for random metrics induced by random points on a line, the
// capacity constraint always holds and every item is assigned.
func TestPartitionProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		cap := 1 + rng.Intn(12)
		pos := make([]float64, n)
		for i := range pos {
			pos[i] = rng.Float64() * 100
		}
		dist := func(i, j int) float64 { return math.Abs(pos[i] - pos[j]) }
		res, err := Partition(n, cap, dist, rng)
		if err != nil {
			return false
		}
		counts := make([]int, len(res.Medoids))
		for _, c := range res.Assign {
			counts[c]++
		}
		for _, cnt := range counts {
			if cnt > cap {
				return false
			}
		}
		return len(res.Assign) == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
