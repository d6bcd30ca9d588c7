package workload

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenerateShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := Default(100, 20)
	w, err := Generate(cfg, 128, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Streams) != 100 || len(w.Queries) != 20 {
		t.Fatalf("streams=%d queries=%d", len(w.Streams), len(w.Queries))
	}
	for _, id := range w.Streams {
		s := w.Catalog.Stream(id)
		if s.Rate < rateLo || s.Rate > rateHi {
			t.Errorf("rate %g out of range", s.Rate)
		}
		if int(s.Source) < 0 || int(s.Source) >= 128 {
			t.Errorf("source %d out of range", s.Source)
		}
	}
	for _, q := range w.Queries {
		if q.K() < cfg.MinSources || q.K() > cfg.MaxSources {
			t.Errorf("query %d has %d sources", q.ID, q.K())
		}
		if int(q.Sink) < 0 || int(q.Sink) >= 128 {
			t.Errorf("sink %d out of range", q.Sink)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Default(30, 5), 64, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Default(30, 5), 64, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Queries {
		if a.Queries[i].Sink != b.Queries[i].Sink || a.Queries[i].K() != b.Queries[i].K() {
			t.Fatalf("query %d differs", i)
		}
		for j := range a.Queries[i].Sources {
			if a.Queries[i].Sources[j] != b.Queries[i].Sources[j] {
				t.Fatalf("query %d source %d differs", i, j)
			}
		}
	}
	for i := range a.Streams {
		if a.Catalog.Stream(a.Streams[i]).Rate != b.Catalog.Stream(b.Streams[i]).Rate {
			t.Fatalf("stream %d rate differs", i)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bad := []Config{
		{Streams: 0, Queries: 1, MinSources: 1, MaxSources: 1},
		{Streams: 5, Queries: 1, MinSources: 0, MaxSources: 2},
		{Streams: 5, Queries: 1, MinSources: 3, MaxSources: 2},
		{Streams: 5, Queries: 1, MinSources: 2, MaxSources: 6},
		{Streams: 40, Queries: 1, MinSources: 20, MaxSources: 30},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg, 16, rng); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := Generate(Default(10, 1), 0, rng); err == nil {
		t.Error("zero nodes accepted")
	}
}

// Property: every query's sources are distinct and selectivities fall in
// the configured range.
func TestGenerateProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Default(10+rng.Intn(40), 1+rng.Intn(10))
		w, err := Generate(cfg, 8+rng.Intn(64), rng)
		if err != nil {
			return false
		}
		for _, q := range w.Queries {
			seen := map[int]bool{}
			for _, s := range q.Sources {
				if seen[int(s)] {
					return false
				}
				seen[int(s)] = true
			}
		}
		for i := 0; i < len(w.Streams); i++ {
			for j := i + 1; j < len(w.Streams); j++ {
				sel := w.Catalog.Selectivity(w.Streams[i], w.Streams[j])
				if sel < selLo || sel > selHi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
