package query

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaskBasics(t *testing.T) {
	m := Mask(0b1011)
	if !m.Has(0) || !m.Has(1) || m.Has(2) || !m.Has(3) {
		t.Error("Has wrong")
	}
	if m.Count() != 3 {
		t.Errorf("Count = %d", m.Count())
	}
	ps := m.Positions()
	want := []int{0, 1, 3}
	if len(ps) != 3 {
		t.Fatalf("Positions = %v", ps)
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("Positions = %v, want %v", ps, want)
		}
	}
	if FullMask(4) != 0b1111 {
		t.Errorf("FullMask(4) = %b", FullMask(4))
	}
	if FullMask(0) != 0 {
		t.Errorf("FullMask(0) = %b", FullMask(0))
	}
}

func TestCatalogSelectivity(t *testing.T) {
	c := NewCatalog(0.5)
	a := c.Add("A", 10, 0)
	b := c.Add("B", 20, 1)
	if c.NumStreams() != 2 {
		t.Fatal("NumStreams")
	}
	if got := c.Selectivity(a, b); got != 0.5 {
		t.Errorf("default sel = %g", got)
	}
	c.SetSelectivity(b, a, 0.01)
	if got := c.Selectivity(a, b); got != 0.01 {
		t.Errorf("sel = %g, want symmetric 0.01", got)
	}
	if s := c.Stream(a); s.Name != "A" || s.Rate != 10 {
		t.Errorf("Stream(a) = %+v", s)
	}
}

func TestSigOfCanonical(t *testing.T) {
	if SigOf([]StreamID{3, 1, 2}) != "1|2|3" {
		t.Errorf("SigOf = %q", SigOf([]StreamID{3, 1, 2}))
	}
	if SigOf([]StreamID{7}) != "7" {
		t.Errorf("singleton sig = %q", SigOf([]StreamID{7}))
	}
}

func TestNewQueryValidation(t *testing.T) {
	if _, err := NewQuery(0, nil, 0); err == nil {
		t.Error("empty sources accepted")
	}
	if _, err := NewQuery(0, []StreamID{1, 1}, 0); err == nil {
		t.Error("duplicate sources accepted")
	}
	many := make([]StreamID, MaxSources+1)
	for i := range many {
		many[i] = StreamID(i)
	}
	if _, err := NewQuery(0, many, 0); err == nil {
		t.Error("too many sources accepted")
	}
	q, err := NewQuery(7, []StreamID{4, 2, 9}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if q.K() != 3 || q.All() != 0b111 {
		t.Errorf("K=%d All=%b", q.K(), q.All())
	}
}

func TestMaskOfAndStreamsOf(t *testing.T) {
	q, _ := NewQuery(0, []StreamID{4, 2, 9}, 0)
	m, ok := q.MaskOf([]StreamID{9, 4})
	if !ok || m != 0b101 {
		t.Errorf("MaskOf = %b,%v", m, ok)
	}
	if _, ok := q.MaskOf([]StreamID{4, 8}); ok {
		t.Error("foreign stream accepted")
	}
	ids := q.StreamsOf(0b101)
	if len(ids) != 2 || ids[0] != 4 || ids[1] != 9 {
		t.Errorf("StreamsOf = %v", ids)
	}
	if q.SigOf(0b110) != "2|9" {
		t.Errorf("SigOf = %q", q.SigOf(0b110))
	}
}

// BaseStream must agree with StreamsOf on every one-position mask and
// refuse every other mask, a position past the sources included.
func TestBaseStream(t *testing.T) {
	q, _ := NewQuery(0, []StreamID{4, 2, 9}, 0)
	for m := Mask(0); m < 1<<5; m++ {
		id, ok := q.BaseStream(m)
		ids := q.StreamsOf(m)
		if want := m.Count() == 1 && len(ids) == 1; ok != want || ok && id != ids[0] {
			t.Errorf("BaseStream(%b) = %d,%v; StreamsOf = %v", m, id, ok, ids)
		}
	}
}

func TestBuildRates(t *testing.T) {
	c := NewCatalog(1)
	a := c.Add("A", 10, 0)
	b := c.Add("B", 20, 1)
	d := c.Add("C", 5, 2)
	c.SetSelectivity(a, b, 0.1)
	c.SetSelectivity(a, d, 0.2)
	c.SetSelectivity(b, d, 0.5)
	q, _ := NewQuery(0, []StreamID{a, b, d}, 0)
	rt := BuildRates(c, q)
	if rt.Rate(0b001) != 10 || rt.Rate(0b010) != 20 || rt.Rate(0b100) != 5 {
		t.Errorf("singleton rates wrong: %v", rt)
	}
	if got := rt.Rate(0b011); math.Abs(got-10*20*0.1) > 1e-9 {
		t.Errorf("rate(AB) = %g, want 20", got)
	}
	// Full join: 10*20*5 * sel(ab)*sel(ad)*sel(bd) = 1000*0.01 = 10.
	if got := rt.Rate(0b111); math.Abs(got-10*20*5*0.1*0.2*0.5) > 1e-9 {
		t.Errorf("rate(ABC) = %g", got)
	}
}

// Property: rate is independent of the order subsets are combined in,
// i.e. rate(S1)*rate(S2)*crossSel == rate(S1|S2) for any split.
func TestRateSplitConsistency(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCatalog(0.05)
		k := 2 + rng.Intn(5)
		ids := make([]StreamID, k)
		for i := range ids {
			ids[i] = c.Add("s", 1+rng.Float64()*99, 0)
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				c.SetSelectivity(ids[i], ids[j], 0.001+rng.Float64()*0.01)
			}
		}
		q, err := NewQuery(0, ids, 0)
		if err != nil {
			return false
		}
		rt := BuildRates(c, q)
		full := q.All()
		for s1 := Mask(1); s1 < full; s1++ {
			if s1&full != s1 {
				continue
			}
			s2 := full &^ s1
			if s2 == 0 {
				continue
			}
			cross := 1.0
			for _, i := range s1.Positions() {
				for _, j := range s2.Positions() {
					cross *= c.Selectivity(ids[i], ids[j])
				}
			}
			lhs := rt.Rate(s1) * rt.Rate(s2) * cross
			if rel := math.Abs(lhs-rt.Rate(full)) / rt.Rate(full); rel > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestNumTrees(t *testing.T) {
	want := map[int]int64{1: 1, 2: 1, 3: 3, 4: 15, 5: 105, 6: 945, 7: 10395}
	for k, w := range want {
		if got := NumTrees(k); got != w {
			t.Errorf("NumTrees(%d) = %d, want %d", k, got, w)
		}
	}
	if NumTrees(0) != 0 {
		t.Error("NumTrees(0) != 0")
	}
}
