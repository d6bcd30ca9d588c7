package des

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New[struct{}](nil)
	var order []float64
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 3 {
		t.Errorf("Now = %g", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New[struct{}](nil)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New[struct{}](nil)
	var times []float64
	s.Schedule(1, func() {
		times = append(times, s.Now())
		s.Schedule(2, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v", times)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New[struct{}](nil)
	ran := false
	s.Schedule(5, func() {
		s.Schedule(-10, func() { ran = true })
	})
	s.Run()
	if !ran || s.Now() != 5 {
		t.Errorf("ran=%v now=%g", ran, s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New[struct{}](nil)
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(float64(i), func() { count++ })
	}
	s.RunUntil(5)
	if count != 5 {
		t.Errorf("count = %d after RunUntil(5)", count)
	}
	if s.Now() != 5 {
		t.Errorf("Now = %g", s.Now())
	}
	if s.Pending() != 5 {
		t.Errorf("Pending = %d", s.Pending())
	}
	s.Run()
	if count != 10 {
		t.Errorf("count = %d after Run", count)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New[struct{}](nil)
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Errorf("Now = %g", s.Now())
	}
}

// Property: however events are scheduled, execution times are observed in
// non-decreasing order.
func TestMonotoneClock(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New[struct{}](nil)
		var seen []float64
		n := 1 + rng.Intn(50)
		var delays []float64
		for i := 0; i < n; i++ {
			d := rng.Float64() * 100
			delays = append(delays, d)
			s.Schedule(d, func() { seen = append(seen, s.Now()) })
		}
		s.Run()
		if !sort.Float64sAreSorted(seen) {
			return false
		}
		sort.Float64s(delays)
		for i := range seen {
			if seen[i] != delays[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// schedOp is one scripted scheduling call: how (Schedule, At or Send), its
// delay or absolute time, and the event it queues.
type schedOp struct {
	how   int // 0 Schedule(v), 1 At(v), 2 Send(v)
	v     float64
	child int
}

// refSim is the specification the heap is held to: a pending list in
// queueing order, stably sorted by time before each pop — that is, the
// (t, seq) order by definition, with no heap in sight.
type refSim struct {
	now     float64
	pending []refEvent
}

type refEvent struct {
	t  float64
	id int
}

func (r *refSim) queue(op schedOp) {
	t := op.v
	if op.how != 1 { // a delay, clamped at zero
		t = r.now + math.Max(op.v, 0)
	}
	r.pending = append(r.pending, refEvent{math.Max(t, r.now), op.child})
}

// runUntil fires pending events with time ≤ limit in stable time order,
// each queueing its scripted children, and appends what fired to order.
func (r *refSim) runUntil(limit float64, script [][]schedOp, order *[]refEvent) {
	for {
		sort.SliceStable(r.pending, func(i, j int) bool { return r.pending[i].t < r.pending[j].t })
		if len(r.pending) == 0 || r.pending[0].t > limit {
			return
		}
		e := r.pending[0]
		r.pending = r.pending[1:]
		r.now = e.t
		*order = append(*order, e)
		for _, op := range script[e.id] {
			r.queue(op)
		}
	}
}

// TestHeapMatchesStableSort is the differential test of the typed heap:
// 10,000 random schedules — coarse timestamps so ties are the rule,
// negative delays, At in the past, events that queue more events from
// inside Step, closures and messages interleaved, a RunUntil in the
// middle with a second batch queued from outside after it — must fire in
// exactly the order a stable sort by (t, seq) gives, at the same times.
func TestHeapMatchesStableSort(t *testing.T) {
	values := []float64{-5, -1, 0, 0, 0.5, 1, 1, 2, 3, 7}
	for trial := 0; trial < 10000; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 2 + rng.Intn(60)
		randOp := func(child int) schedOp {
			return schedOp{how: rng.Intn(3), v: values[rng.Intn(len(values))], child: child}
		}
		// Events 0..roots-1 are queued from outside, in two batches; every
		// later event is queued by a random earlier one when that fires.
		roots := 1 + rng.Intn(n-1)
		script := make([][]schedOp, n)
		outside := make([]schedOp, roots)
		for id := 0; id < n; id++ {
			if id < roots {
				outside[id] = randOp(id)
			} else {
				parent := rng.Intn(id)
				script[parent] = append(script[parent], randOp(id))
			}
		}
		split, mid := rng.Intn(roots+1), values[rng.Intn(len(values))]

		var got []refEvent
		var s *Sim[int]
		var fire func(int)
		fire = func(id int) {
			got = append(got, refEvent{s.Now(), id})
			for _, op := range script[id] {
				queueOn(s, op, fire)
			}
		}
		s = New(fire)
		for _, op := range outside[:split] {
			queueOn(s, op, fire)
		}
		s.RunUntil(mid)
		for _, op := range outside[split:] {
			queueOn(s, op, fire)
		}
		s.Run()

		var want []refEvent
		ref := &refSim{}
		for _, op := range outside[:split] {
			ref.queue(op)
		}
		ref.runUntil(mid, script, &want)
		ref.now = math.Max(ref.now, mid)
		for _, op := range outside[split:] {
			ref.queue(op)
		}
		ref.runUntil(math.Inf(1), script, &want)

		if len(got) != n || len(want) != n {
			t.Fatalf("trial %d: fired %d (heap) / %d (reference) of %d events", trial, len(got), len(want), n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: firing %d is event %d at t=%g, stable sort says event %d at t=%g",
					trial, i, got[i].id, got[i].t, want[i].id, want[i].t)
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("trial %d: %d events still pending after Run", trial, s.Pending())
		}
	}
}

// queueOn applies one scripted call to the simulation under test; message
// events reach fire through the handler, closure events call it directly.
func queueOn(s *Sim[int], op schedOp, fire func(int)) {
	switch op.how {
	case 0:
		s.Schedule(op.v, func() { fire(op.child) })
	case 1:
		s.At(op.v, func() { fire(op.child) })
	default:
		s.Send(op.v, op.child)
	}
}
