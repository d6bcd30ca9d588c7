package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("Counter not idempotent by name")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(0.5)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %g, want 3", got)
	}
}

// TestLiveHandlesRecordWithoutAllocating: every handle of a registry
// records, and an update — Inc, Add, Set, Observe, a bound span's
// Start/End — allocates nothing.
func TestLiveHandlesRecordWithoutAllocating(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	ss := r.SpanSource("span")
	const runs = 100
	if n := testing.AllocsPerRun(runs, func() {
		c.Inc()
		c.Add(3)
		g.Set(9)
		g.Add(1)
		h.Observe(0.5)
		ss.Start().End()
	}); n != 0 {
		t.Fatalf("Inc/Add/Set/Observe/Start+End allocate %v times, want 0", n)
	}
	const calls = runs + 1 // AllocsPerRun warms up with one extra call
	if got := c.Value(); got != 4*calls {
		t.Errorf("counter = %d, want %d", got, 4*calls)
	}
	if got := g.Value(); got != 10 {
		t.Errorf("gauge = %g, want 10", got)
	}
	if h.Count() != calls || h.Sum() != 0.5*calls {
		t.Errorf("histogram count=%d sum=%g, want %d and %g", h.Count(), h.Sum(), calls, 0.5*calls)
	}
	snap := r.Snapshot()
	if got := snap.Counter("span.calls"); got != calls {
		t.Errorf("span.calls = %d, want %d", got, calls)
	}
	if got := snap.Histograms["span.seconds"].Count; got != calls {
		t.Errorf("span.seconds count = %d, want %d", got, calls)
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", nil)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	StartSpan(r, "x").End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles recorded values")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestConcurrentIncrements hammers one counter, one gauge and one
// histogram from many goroutines; run under -race this is the layer's
// race-freedom proof, and the totals prove no increment is lost.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const goroutines, each = 16, 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Mix handle lookups with pre-bound handles: both paths must
			// be safe concurrently.
			c := r.Counter("hits")
			for j := 0; j < each; j++ {
				c.Inc()
				r.Gauge("accum").Add(1)
				r.Histogram("lat", defBuckets).Observe(float64(j%7) * 1e-4)
			}
		}()
	}
	wg.Wait()
	want := int64(goroutines * each)
	if got := r.Counter("hits").Value(); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if got := r.Gauge("accum").Value(); got != float64(want) {
		t.Fatalf("gauge = %g, want %d", got, want)
	}
	h := r.Histogram("lat", nil)
	if h.Count() != want {
		t.Fatalf("histogram count = %d, want %d", h.Count(), want)
	}
	snap := r.Snapshot()
	total := int64(0)
	for _, n := range snap.Histograms["lat"].Counts {
		total += n
	}
	if total != want {
		t.Fatalf("bucket counts sum to %d, want %d", total, want)
	}
}

// TestSnapshotIsolation: a snapshot must be fully detached — later
// increments do not leak into it, and mutating the snapshot's maps does
// not disturb the registry.
func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Histogram("h", []float64{1, 2}).Observe(0.5)
	snap := r.Snapshot()

	r.Counter("c").Add(100)
	r.Histogram("h", nil).Observe(1.5)
	if snap.Counter("c") != 7 {
		t.Fatalf("snapshot counter moved: %d", snap.Counter("c"))
	}
	if snap.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot histogram moved: %d", snap.Histograms["h"].Count)
	}

	snap.Counters["c"] = -1
	snap.Histograms["h"].Counts[0] = -1
	if r.Counter("c").Value() != 107 {
		t.Fatal("mutating snapshot disturbed registry")
	}
	fresh := r.Snapshot()
	if fresh.Histograms["h"].Counts[0] != 1 {
		t.Fatal("mutating snapshot bucket disturbed registry")
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	r := NewRegistry()
	sp := StartSpan(r, "work")
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatalf("span duration = %v", d)
	}
	if got := r.Counter("work.calls").Value(); got != 1 {
		t.Fatalf("span calls = %d", got)
	}
	h := r.Histogram("work.seconds", nil)
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Fatalf("span histogram count=%d sum=%g", h.Count(), h.Sum())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	// 0.5 and 1 land in <=1; 5 in <=10; 100 in +Inf.
	want := []int64{2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Mean() != (0.5+1+5+100)/4 {
		t.Fatalf("mean = %g", s.Mean())
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Fatal("empty histogram mean must be 0, not NaN")
	}
}

func TestSinks(t *testing.T) {
	r := NewRegistry()
	r.Counter("ads.hits").Add(3)
	r.Gauge("load.total").Set(1.5)
	r.Histogram("plan.seconds", nil).Observe(0.01)
	snap := r.Snapshot()

	rec := httptest.NewRecorder()
	MetricsHandler(func() Snapshot { return snap })(rec, httptest.NewRequest("GET", "/metrics", nil))
	var decoded Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("/metrics output not parseable: %v", err)
	}
	if decoded.Counter("ads.hits") != 3 {
		t.Fatalf("round-tripped counter = %d", decoded.Counter("ads.hits"))
	}

	var tb bytes.Buffer
	if err := (TextSink{W: &tb}).Emit(snap); err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, want := range []string{"ads.hits", "load.total", "plan.seconds", "count=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text sink output missing %q:\n%s", want, out)
		}
	}

	// Re-registering the same name must not panic.
	PublishExpvar("obs-test-reg", r)
	PublishExpvar("obs-test-reg", r)
}
