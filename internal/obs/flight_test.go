package obs

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestFlightRecorderSnapshotOrder(t *testing.T) {
	tr := NewTracer(4)
	if tr.On() {
		t.Fatal("new tracer must start disarmed")
	}
	if id := tr.Emit(Event{Kind: KindPlanStarted}); id != 0 {
		t.Fatalf("disarmed Emit returned id %d, want 0", id)
	}
	tr.Enable()
	for i := 0; i < 3; i++ {
		tr.Emit(Event{Kind: KindGateDecision, Query: i, Node: NoID})
	}
	snap := tr.Snapshot()
	if len(snap) != 3 || tr.Len() != 3 || tr.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d snapshot=%d, want 3/0/3", tr.Len(), tr.Dropped(), len(snap))
	}
	for i, e := range snap {
		if e.ID != uint64(i+1) || e.Query != i {
			t.Fatalf("snapshot[%d] = id %d q %d, want id %d q %d", i, e.ID, e.Query, i+1, i)
		}
	}
}

func TestFlightRecorderRingWrapDropsOldest(t *testing.T) {
	tr := NewTracer(4)
	tr.Enable()
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: KindGateDecision, Query: i, Node: NoID})
	}
	if tr.Len() != 4 || tr.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d, want 4/6", tr.Len(), tr.Dropped())
	}
	snap := tr.Snapshot()
	for i, e := range snap {
		if want := uint64(7 + i); e.ID != want {
			t.Fatalf("snapshot[%d].ID = %d, want %d (oldest survivors first)", i, e.ID, want)
		}
	}
}

// eagerRing is the recorder's ring as it was before it grew on demand:
// allocated whole, a cursor at total % len. The lazy ring is held to it.
type eagerRing struct {
	ring  []Event
	total uint64
}

func (r *eagerRing) emit(e Event) {
	r.ring[r.total%uint64(len(r.ring))] = e
	r.total++
}

func (r *eagerRing) snapshot() []Event {
	n := uint64(len(r.ring))
	held := min(r.total, n)
	out := make([]Event, 0, held)
	for i := r.total - held; i < r.total; i++ {
		out = append(out, r.ring[i%n])
	}
	return out
}

// TestFlightRingGrowsToSize: the ring is appended to until it reaches its
// size and wraps from then on, and nothing a reader can see tells that
// apart from a ring allocated whole — Len, Dropped and Snapshot agree with
// the eager reference after every emit, from empty through the third
// wrap. (At the default size Snapshot is compared on every emit near a
// multiple of the size and on every 97th elsewhere.)
func TestFlightRingGrowsToSize(t *testing.T) {
	for _, size := range []int{1, 8, 100, 0} {
		tr := NewTracer(size)
		tr.Enable()
		if tr.segs != nil || tr.Len() != 0 || tr.Snapshot() != nil {
			t.Fatalf("size %d: an armed idle tracer holds %d segments", size, len(tr.segs))
		}
		n := size
		if n == 0 {
			n = DefaultFlightSize
		}
		ref := eagerRing{ring: make([]Event, n)}
		for i := 1; i <= 3*n+2; i++ {
			e := Event{Kind: KindGateDecision, Query: i, Node: NoID, Wall: int64(i)}
			id := tr.Emit(e)
			e.ID = uint64(i)
			ref.emit(e)
			if id != e.ID {
				t.Fatalf("size %d: emit %d returned id %d", size, i, id)
			}
			if maxSegs := (n+segmentEvents-1)/segmentEvents + 1; len(tr.segs) > maxSegs {
				t.Fatalf("size %d after %d emits: %d segments, more than %d", size, i, len(tr.segs), maxSegs)
			}
			wantLen, wantDropped := min(i, n), uint64(max(i-n, 0))
			if tr.Len() != wantLen || tr.Dropped() != wantDropped {
				t.Fatalf("size %d after %d emits: len %d dropped %d, want %d and %d",
					size, i, tr.Len(), tr.Dropped(), wantLen, wantDropped)
			}
			if near := i % n; n <= 100 || near <= 2 || near >= n-2 || i%97 == 0 {
				if got, want := tr.Snapshot(), ref.snapshot(); !slices.Equal(got, want) {
					t.Fatalf("size %d after %d emits: snapshot of %d events differs from the eager ring's %d",
						size, i, len(got), len(want))
				}
			}
		}
	}
}

func TestFlightJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	tr.Enable()
	a := tr.Emit(Event{Kind: KindCalibrationWindow, Trace: QueryTrace(3), Query: 3, Node: NoID, VTime: 12.5, Value: 0.4})
	b := tr.Emit(Event{Kind: KindGateDecision, Parent: a, Trace: QueryTrace(3), Query: 3, Node: NoID, Gate: "drift", Pass: true, Value: 0.4, Aux: 0.2})
	tr.Emit(Event{Kind: KindMigrationApplied, Parent: b, Trace: QueryTrace(3), Query: 3, Node: 7, VTime: 12.5, Detail: "kept=2"})

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := tr.Snapshot()
	if len(back) != len(orig) {
		t.Fatalf("round trip lost events: %d -> %d", len(orig), len(back))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Fatalf("event %d changed in round trip:\n got %+v\nwant %+v", i, back[i], orig[i])
		}
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for k := KindNone; k <= KindHierarchyChanged; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("kind %v round-tripped to %v", k, back)
		}
	}
	var unknown Kind
	if err := json.Unmarshal([]byte(`"from_the_future"`), &unknown); err != nil || unknown != KindNone {
		t.Fatalf("unknown kind: got %v, err %v; want KindNone, nil", unknown, err)
	}
}

func TestTimelineRenderNestsByParent(t *testing.T) {
	events := []Event{
		{ID: 1, Kind: KindCalibrationWindow, Trace: QueryTrace(2), Query: 2, Node: NoID, VTime: 15},
		{ID: 2, Parent: 1, Kind: KindGateDecision, Trace: QueryTrace(2), Query: 2, Node: NoID, Gate: "drift", Pass: true},
		{ID: 3, Parent: 2, Kind: KindMigrationApplied, Trace: QueryTrace(2), Query: 2, Node: 4},
		{ID: 4, Kind: KindCalibrationWindow, Trace: QueryTrace(5), Query: 5, Node: NoID},
	}
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, FilterTrace(events, QueryTrace(2))); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "q=5") {
		t.Fatalf("filter leaked another trace:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline has %d lines, want 3:\n%s", len(lines), out)
	}
	for i, prefix := range []string{"#1 ", "  #2 ", "    #3 "} {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Fatalf("line %d = %q, want prefix %q (indentation mirrors causality)", i, lines[i], prefix)
		}
	}
}

// TestTracerDisarmedEmitZeroAllocs pins the always-on contract: with the
// recorder disarmed, emission is one atomic load and allocates nothing,
// so leaving trace call sites in production paths is free.
func TestTracerDisarmedEmitZeroAllocs(t *testing.T) {
	tr := NewTracer(8)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Kind: KindGateDecision, Query: 1, Node: NoID, Gate: "drift", Value: 0.3})
	})
	if allocs != 0 {
		t.Fatalf("disarmed Emit allocates %.1f per call, want 0", allocs)
	}
	var nilTr *Tracer
	allocs = testing.AllocsPerRun(1000, func() {
		nilTr.Emit(Event{Kind: KindGateDecision, Query: 1, Node: NoID})
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer Emit allocates %.1f per call, want 0", allocs)
	}
}

// servingMix emits the three events one served deploy records at wall:
// the prepared statement's rewrite audit (one string all its deploys
// share), plan_started naming the planner, and plan_chosen with the
// plan's cost and search space 14 µs later.
func servingMix(tr *Tracer, q int, wall int64) {
	tr.Emit(Event{Kind: KindRewriteApplied, Trace: QueryTrace(q), Query: q, Node: NoID, Wall: wall,
		Value: 1843.5, Aux: 2, Detail: refAudit})
	started := tr.Emit(Event{Kind: KindPlanStarted, Trace: QueryTrace(q), Query: q, Node: q % 48, Wall: wall + 2_000,
		Detail: "top-down"})
	tr.Emit(Event{Kind: KindPlanChosen, Parent: started, Trace: QueryTrace(q), Query: q, Node: q % 31, Wall: wall + 14_000,
		Value: 80.375 + float64(q%17), Aux: 1512})
}

// servedAt is the wall time of the served deploy of query q, one every
// 35 µs.
func servedAt(q int) int64 { return 1_700_000_000_000_000_000 + int64(q)*35_000 }

// TestFlightArmedEmitSteadyStateAllocs pins segment recycling: once the
// recorder has wrapped, an armed emit reuses the buffers of the segment
// that aged out and allocates nothing.
func TestFlightArmedEmitSteadyStateAllocs(t *testing.T) {
	tr := NewTracer(0)
	tr.Enable()
	q := 1 << 17
	for ; tr.Len()+int(tr.Dropped()) < 3*DefaultFlightSize; q++ {
		servingMix(tr, q, servedAt(q))
	}
	const deploys = DefaultFlightSize
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range deploys {
		servingMix(tr, q+i, servedAt(q+i))
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / (3 * deploys); per > 0.01 {
		t.Fatalf("armed Emit allocates %.4f per call in steady state, want <= 0.01", per)
	}
}

// TestFlightBytesPerEvent pins the record's size: a default-size recorder
// filled three times over with the serving mix retains at most 20 B per
// held event, counting every segment's buffer and string table at
// capacity, the segment headers and the segment list. (A ring of whole
// Events held 120; records with Query and Aux at full width, 29.)
func TestFlightBytesPerEvent(t *testing.T) {
	tr := NewTracer(0)
	tr.Enable()
	for q := 1 << 17; tr.Len()+int(tr.Dropped()) < 3*DefaultFlightSize; q++ {
		servingMix(tr, q, servedAt(q))
	}
	retained := uintptr(cap(tr.segs)) * unsafe.Sizeof(tr.segs[0])
	for _, s := range tr.segs {
		retained += unsafe.Sizeof(*s) + uintptr(cap(s.buf)) + uintptr(cap(s.strs))*unsafe.Sizeof("")
	}
	per := float64(retained) / float64(tr.Len())
	t.Logf("%d segments retain %d B for %d events: %.1f B per event", len(tr.segs), retained, tr.Len(), per)
	if per > 20 {
		t.Fatalf("%.1f B retained per held event, want <= 20", per)
	}
}

// TestFlightIDsFollowRecordOrder: concurrent emitters are given IDs in
// the order their records land, so a snapshot reads 1, 2, 3, … with no
// neighbour inverted.
func TestFlightIDsFollowRecordOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	const workers, each = 8, 5000
	tr := NewTracer(1 << 16)
	tr.Enable()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				tr.Emit(Event{Kind: KindGateDecision, Query: w, Node: i})
			}
		}()
	}
	wg.Wait()
	evs := tr.Snapshot()
	if len(evs) != workers*each {
		t.Fatalf("snapshot holds %d events, want %d", len(evs), workers*each)
	}
	inverted := 0
	for i := 1; i < len(evs); i++ {
		if evs[i].ID < evs[i-1].ID {
			inverted++
		}
	}
	if inverted > 0 || evs[0].ID != 1 || evs[len(evs)-1].ID != workers*each {
		t.Fatalf("%d of %d neighbours out of ID order (IDs %d .. %d)",
			inverted, len(evs)-1, evs[0].ID, evs[len(evs)-1].ID)
	}
}

// TestObsConcurrentHammer drives every concurrent surface at once —
// counters, gauges, histograms, snapshots, span sources, and the flight
// recorder's emit/snapshot/dump paths — and is part of the -race CI
// sweep.
func TestObsConcurrentHammer(t *testing.T) {
	withObs(t, func() {
		r := NewRegistry()
		tr := r.Tracer()
		tr.size = 64 // small enough that the hammer wraps the ring
		tr.Enable()
		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					r.Counter("hammer.count").Inc()
					r.Gauge("hammer.gauge").Set(float64(i))
					r.Histogram("hammer.hist", nil).Observe(float64(i) * 1e-4)
					sp := r.SpanSource("hammer.span").Start()
					sp.End()
					id := tr.Emit(Event{Kind: KindGateDecision, Trace: QueryTrace(w), Query: w, Node: NoID, Gate: "drift", Pass: i%2 == 0})
					if i%10 == 0 {
						tr.Emit(Event{Kind: KindMigrationApplied, Parent: id, Trace: QueryTrace(w), Query: w, Node: NoID})
					}
					if i%50 == 0 {
						_ = r.Snapshot()
						_ = tr.Snapshot()
						_ = tr.Len()
						_ = tr.Dropped()
						var sink bytes.Buffer
						_ = tr.WriteJSONL(&sink)
					}
				}
			}()
		}
		wg.Wait()
		if got := r.Counter("hammer.count").Value(); got != workers*300 {
			t.Fatalf("hammer.count = %d, want %d", got, workers*300)
		}
		if got := r.Snapshot().Histograms["hammer.hist"].Count; got != workers*300 {
			t.Fatalf("hammer.hist count = %d, want %d", got, workers*300)
		}
	})
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	h := HistogramSnapshot{}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
	// 100 observations spread uniformly over (0, 1]: bounds at each 0.1.
	h = HistogramSnapshot{
		Bounds: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		Counts: []int64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 0},
		Count:  100,
		Sum:    50,
	}
	cases := []struct{ q, want float64 }{
		{0.5, 0.5},
		{0.95, 0.95},
		{0.99, 0.99},
		{0.05, 0.05},
		{1.0, 1.0},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); !approx(got, c.want, 1e-9) {
			t.Fatalf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// All mass in the +Inf bucket clamps to the highest finite bound.
	inf := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []int64{0, 0, 5}, Count: 5, Sum: 500}
	if got := inf.Quantile(0.5); got != 2 {
		t.Fatalf("+Inf-bucket quantile = %g, want clamp to 2", got)
	}
	// Skewed mass: 9 fast, 1 slow — p50 interpolates inside the first
	// bucket, p99 inside the last occupied one.
	skew := HistogramSnapshot{Bounds: []float64{1, 10}, Counts: []int64{9, 1, 0}, Count: 10, Sum: 14}
	if got := skew.Quantile(0.5); !approx(got, 5.0/9.0, 1e-9) {
		t.Fatalf("skewed p50 = %g, want %g", got, 5.0/9.0)
	}
	if got := skew.Quantile(0.99); !approx(got, 1+9*0.9, 1e-9) {
		t.Fatalf("skewed p99 = %g, want %g", got, 1+9*0.9)
	}
}

func approx(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

func TestHistogramBoundsConflictCounter(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []float64{1, 2, 3})
	r.Histogram("h", nil)                // nil means "whatever exists": no conflict
	r.Histogram("h", []float64{1, 2, 3}) // identical layout: no conflict
	if got := r.Counter("obs.histogram_bounds_conflict").Value(); got != 0 {
		t.Fatalf("conflict counter = %d after compatible requests, want 0", got)
	}
	r.Histogram("h", []float64{5, 6})
	if got := r.Counter("obs.histogram_bounds_conflict").Value(); got != 1 {
		t.Fatalf("conflict counter = %d after conflicting layout, want 1 (records even with obs disabled)", got)
	}
}

func TestSpanSourcePrebound(t *testing.T) {
	withObs(t, func() {
		r := NewRegistry()
		ss := r.SpanSource("work")
		if r.SpanSource("work") != ss {
			t.Fatal("SpanSource not idempotent by name")
		}
		for i := 0; i < 3; i++ {
			sp := ss.Start()
			sp.End()
		}
		snap := r.Snapshot()
		if got := snap.Counter("work.calls"); got != 3 {
			t.Fatalf("work.calls = %d, want 3", got)
		}
		if got := snap.Histograms["work.seconds"].Count; got != 3 {
			t.Fatalf("work.seconds count = %d, want 3", got)
		}
		// The legacy StartSpan path shares the same underlying metrics.
		sp := StartSpan(r, "work")
		sp.End()
		if got := r.Snapshot().Counter("work.calls"); got != 4 {
			t.Fatalf("StartSpan and SpanSource diverged: calls = %d, want 4", got)
		}
		var nilSS *SpanSource
		nilSS.Start().End() // no-op, must not panic
	})
}
