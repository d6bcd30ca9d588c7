package des

import (
	"fmt"
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

// program is one scripted run: what each event queues when it fires, and
// what is queued from outside before each RunUntil.
type program struct {
	script [][]schedOp
	phases []phase
}

type phase struct {
	outside []schedOp
	limit   float64 // RunUntil(limit) once outside is queued; +Inf means Run
}

// refSim is the specification the queue is held to: a pending list in
// queueing order, stably sorted by time before each pop — that is, the
// (t, seq) order by definition, with no heap and no ring in sight.
type refSim struct {
	now     float64
	pending []refEvent
}

// refEvent is one firing: when, which event, and how many events were
// still queued as it began.
type refEvent struct {
	t       float64
	id      int
	pending int
}

func (r *refSim) queue(op schedOp) {
	t := op.v
	if op.how != 1 { // a delay, clamped at zero
		t = r.now + math.Max(op.v, 0)
	}
	r.pending = append(r.pending, refEvent{t: math.Max(t, r.now), id: op.child})
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
		*order = append(*order, refEvent{e.t, e.id, len(r.pending)})
		for _, op := range script[e.id] {
			r.queue(op)
		}
	}
}

func (p program) onRef() []refEvent {
	var want []refEvent
	ref := &refSim{}
	for _, ph := range p.phases {
		for _, op := range ph.outside {
			ref.queue(op)
		}
		ref.runUntil(ph.limit, p.script, &want)
		if !math.IsInf(ph.limit, 1) {
			ref.now = math.Max(ref.now, ph.limit)
		}
	}
	return want
}

// coverage counts, from inside the package, what a run put the same-instant
// ring through, so the generator aimed at it cannot drift off target.
type coverage struct {
	queued, instant int         // events queued; of them, into the ring
	chain           int         // longest run of ring events each queued by the one before
	behindHeap      int         // ring pushes from a firing event with the instant's heap entries still queued
	between         int         // ring pushes from outside, after a RunUntil
	late            int         // RunUntil(t) with t < now
	regrown         map[int]int // old ring length → doublings with the live events wrapped around its end
}

// onSim runs the program on the simulation under test; message events
// reach fire through the handler, closure events call it directly. A nil
// cov counts into nothing kept.
func (p program) onSim(cov *coverage) ([]refEvent, *Sim[int]) {
	if cov == nil {
		cov = &coverage{regrown: map[int]int{}}
	}
	var got []refEvent
	var s *Sim[int]
	depth := make([]int, len(p.script)) // same-instant chain ending at each event
	var queue func(op schedOp, parent int)
	fire := func(id int) {
		got = append(got, refEvent{s.Now(), id, s.Pending()})
		for _, op := range p.script[id] {
			queue(op, id)
		}
	}
	queue = func(op schedOp, parent int) {
		ringLen, n := len(s.ring), s.n
		wrapped := s.head+s.n > ringLen
		behind := parent >= 0 && len(s.q) > 0 && s.q[0].t == s.now
		switch op.how {
		case 0:
			s.Schedule(op.v, func() { fire(op.child) })
		case 1:
			s.At(op.v, func() { fire(op.child) })
		default:
			s.Send(op.v, op.child)
		}
		cov.queued++
		if s.n == n {
			return
		}
		cov.instant++
		depth[op.child] = 1
		if parent >= 0 {
			depth[op.child] += depth[parent]
		}
		cov.chain = max(cov.chain, depth[op.child])
		if behind {
			cov.behindHeap++
		}
		if parent < 0 && len(got) > 0 {
			cov.between++
		}
		if len(s.ring) > ringLen && wrapped {
			cov.regrown[ringLen]++
		}
	}
	s = New(fire)
	for _, ph := range p.phases {
		for _, op := range ph.outside {
			queue(op, -1)
		}
		if math.IsInf(ph.limit, 1) {
			s.Run()
			continue
		}
		if ph.limit < s.Now() {
			cov.late++
		}
		s.RunUntil(ph.limit)
	}
	return got, s
}

// check runs the program both ways and reports the first difference.
func (p program) check(cov *coverage) error {
	got, s := p.onSim(cov)
	want := p.onRef()
	if n := len(p.script); len(got) != n || len(want) != n {
		return fmt.Errorf("fired %d (Sim) / %d (reference) of %d events", len(got), len(want), n)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("firing %d is event %d at t=%g with %d pending, stable sort says event %d at t=%g with %d pending",
				i, got[i].id, got[i].t, got[i].pending, want[i].id, want[i].t, want[i].pending)
		}
	}
	if s.Pending() != 0 {
		return fmt.Errorf("%d events still pending after Run", s.Pending())
	}
	return nil
}

// ringValues are delays and times for the programs aimed at the ring:
// coarse, so ties are the rule, and mostly not in the future.
var ringValues = []float64{-5, -1, 0, 0, 0, 0, 0.5, 1, 1, 2, 3, 7}

// decode reads a program from bytes, two per op. The first's low two bits
// pick the call — 3 ends a phase with RunUntil — and the rest pick who
// makes it: 0 the outside, 1–31 the event that many before (1 chains
// events), 32–63 one of the first events (a hub fans out). The second
// byte picks the delay, the time or the RunUntil limit.
func decode(data []byte) program {
	var p program
	var ph phase
	for ; len(data) >= 2; data = data[2:] {
		how, who, v := int(data[0]&3), int(data[0]>>2), ringValues[int(data[1])%len(ringValues)]
		if how == 3 {
			ph.limit = v
			p.phases = append(p.phases, ph)
			ph = phase{}
			continue
		}
		id := len(p.script)
		p.script = append(p.script, nil)
		op, parent := schedOp{how: how, v: v, child: id}, id-min(who, id)
		if who >= 32 && id > 0 {
			parent = (who - 32) % id
		}
		if who == 0 || id == 0 {
			ph.outside = append(ph.outside, op)
		} else {
			p.script[parent] = append(p.script[parent], op)
		}
	}
	ph.limit = math.Inf(1)
	p.phases = append(p.phases, ph)
	return p
}

// ringTrial draws the bytes of a program shaped to load the ring: chains,
// one hub queueing a third of all events, a few RunUntils.
func ringTrial(rng *rand.Rand) []byte {
	n, hub := 40+rng.Intn(260), 32+rng.Intn(8)
	data := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		who := 0 // the outside
		switch r := rng.Intn(10); {
		case r < 4:
			who = 1
		case r < 7:
			who = hub
		case r < 9:
			who = 1 + rng.Intn(63)
		}
		how := rng.Intn(3)
		if rng.Intn(15) == 0 {
			how = 3
		}
		data = append(data, byte(who<<2|how), byte(rng.Intn(256)))
	}
	return data
}

// TestHeapMatchesStableSort is the differential test of the event queue:
// 10,000 random schedules — coarse timestamps so ties are the rule,
// negative delays, At in the past, events that queue more events from
// inside Step, closures and messages interleaved, a RunUntil in the
// middle with a second batch queued from outside after it — must fire in
// exactly the order a stable sort by (t, seq) gives, at the same times
// and with the same number pending at every firing. 2,000 more aim at the
// same-instant ring, and must have hit what they aim at: zero-delay sends
// from inside an event while the heap still holds entries for that
// instant, chains of same-instant events, a ring doubling mid-pop with
// its contents wrapped, same-instant pushes between RunUntils, and
// RunUntil into the past.
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
		p := program{script, []phase{{outside[:split], mid}, {outside[split:], math.Inf(1)}}}
		if err := p.check(nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}

	cov := &coverage{regrown: map[int]int{}}
	for trial := 0; trial < 2000; trial++ {
		if err := decode(ringTrial(rand.New(rand.NewSource(int64(trial))))).check(cov); err != nil {
			t.Fatalf("ring trial %d: %v", trial, err)
		}
	}
	t.Logf("ring trials: %+v", *cov)
	if 100*cov.instant < 30*cov.queued {
		t.Errorf("%d of %d events were queued for the current instant, want at least 30%%", cov.instant, cov.queued)
	}
	if cov.chain < 3 || cov.behindHeap == 0 || cov.between == 0 || cov.late == 0 || cov.regrown[16] == 0 || cov.regrown[32] == 0 {
		t.Errorf("ring trials missed a case they aim at: %+v", *cov)
	}
}

// FuzzSim holds Sim to the stable-sort reference on whatever program the
// bytes decode to.
func FuzzSim(f *testing.F) {
	for _, trial := range []int64{0, 9, 1234} {
		f.Add(ringTrial(rand.New(rand.NewSource(trial))))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 { // the reference sorts its list at every pop
			data = data[:1024]
		}
		if err := decode(data).check(nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDrainedSimPinsNothing: a popped event's slot, in the ring or in the
// slab, is cleared, so a simulation that has run dry holds no reference
// to anything its events carried (a retired operator's windows, in iflow).
func TestDrainedSimPinsNothing(t *testing.T) {
	s := New(func(*int) {})
	for i := 0; i < 40; i++ {
		s.Send(float64(i%3), new(int)) // i%3 == 0: the ring, which doubles twice
		s.Schedule(float64(i%2), func() { s.Send(0, new(int)) })
	}
	s.Run()
	if len(s.ring) < 64 || len(s.slab) == 0 {
		t.Fatalf("ring of %d and slab of %d: the run did not load both", len(s.ring), len(s.slab))
	}
	for i, p := range s.ring {
		if p.fn != nil || p.msg != nil {
			t.Errorf("ring slot %d still holds %+v", i, p)
		}
	}
	for i, p := range s.slab {
		if p.fn != nil || p.msg != nil {
			t.Errorf("slab slot %d still holds %+v", i, p)
		}
	}
}

// A NaN time compares false both ways — no place in the order — so it is
// refused where it enters.
func TestNaNTimePanics(t *testing.T) {
	for name, call := range map[string]func(*Sim[int]){
		"At":       func(s *Sim[int]) { s.At(math.NaN(), func() {}) },
		"Schedule": func(s *Sim[int]) { s.Schedule(math.NaN(), func() {}) },
		"Send":     func(s *Sim[int]) { s.Send(math.NaN(), 1) },
	} {
		t.Run(name, func(t *testing.T) {
			s := New(func(int) {})
			s.Schedule(1, func() {})
			defer func() {
				if r := recover(); r != "des: event time NaN" {
					t.Errorf("recovered %v, want the NaN panic", r)
				}
				if s.Pending() != 1 {
					t.Errorf("%d events pending after the refused call, want 1", s.Pending())
				}
			}()
			call(s)
		})
	}
}
