// Package des is a minimal discrete-event simulator: a time-ordered event
// queue with a virtual clock. The IFLOW runtime executes deployment
// protocols and tuple flows on top of it, substituting for the paper's
// Emulab testbed with deterministic, reproducible timing.
package des

// entry is a queued event's heap key. It stays slim — the payload sits in
// Sim.slab at index slot — because every sift step copies an entry.
type entry struct {
	t    float64
	seq  uint64
	slot int32
}

// before is a strict total order — time, then FIFO among simultaneous
// events; seq is unique — so any correct heap pops the same sequence.
func (e entry) before(o entry) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// payload is what a fired event does: run fn, or if nil handle msg.
type payload[M any] struct {
	fn  func()
	msg M
}

// Sim is a discrete-event simulation carrying two kinds of event on one
// queue: closures (Schedule, At) for rare control events, and plain
// messages of type M (Send), which allocate nothing per event.
//
// The queue is one (t, seq) order held in two structures, an event going
// to exactly one by its key: t > now to the heap, t == now to the ring.
// Heap entries have t ≥ now and the clock moves only when a heap entry
// with t > now fires or RunUntil finds nothing due — neither happens
// while the ring holds an event, whose time now sorts first — so every
// ring entry has t == now and the ring, appended in queueing order, is
// sorted. A heap entry with t == now was queued while the clock read
// less, before anything now in the ring, so it sorts before all of the
// ring: the ring needs no key, and Step picks by the heap root's time.
type Sim[M any] struct {
	q      []entry      // binary min-heap by entry.before
	slab   []payload[M] // payloads of the heap's events
	free   []int32      // unused slab indices
	ring   []payload[M] // FIFO of events for the current instant; len 0 or a power of two
	head   int          // ring index of the oldest event
	n      int          // events in the ring
	handle func(M)
	now    float64
	seq    uint64
}

// New returns a fresh simulation at time zero. handle receives each Send
// message at its time; nil suits a simulation of closures only.
func New[M any](handle func(M)) *Sim[M] { return &Sim[M]{handle: handle} }

// Now returns the current virtual time in seconds.
func (s *Sim[M]) Now() float64 { return s.now }

// Pending returns the number of queued events.
func (s *Sim[M]) Pending() int { return len(s.q) + s.n }

// Schedule queues fn to run after delay seconds of virtual time. Negative
// delays are clamped to zero (run "now", after already-queued events at
// the current instant). A NaN delay or time is a caller bug — it has no
// place in the order — and Schedule, At and Send panic on it.
func (s *Sim[M]) Schedule(delay float64, fn func()) { s.At(s.now+max(delay, 0), fn) }

// At queues fn at absolute virtual time t; times in the past run at the
// current instant.
func (s *Sim[M]) At(t float64, fn func()) { s.push(max(t, s.now), payload[M]{fn: fn}) }

// Send queues msg for the handler after delay seconds, clamped like
// Schedule's and FIFO with closures queued for the same instant.
func (s *Sim[M]) Send(delay float64, msg M) { s.push(s.now+max(delay, 0), payload[M]{msg: msg}) }

func (s *Sim[M]) push(t float64, p payload[M]) {
	if t == s.now {
		// The heap's worst case — sifted up to just under the root, popped
		// next, the displaced last entry sifted all the way back down —
		// and the common one: a hand-off between operators on one node.
		if s.n == len(s.ring) {
			s.growRing()
		}
		s.ring[(s.head+s.n)&(len(s.ring)-1)] = p
		s.n++
		return
	}
	if !(t > s.now) { // At and Send clamp the past away, so only NaN is left
		panic("des: event time NaN")
	}
	slot := int32(len(s.slab))
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
		s.slab[slot] = p
	} else {
		s.slab = append(s.slab, p)
	}
	s.seq++
	e := entry{t: t, seq: s.seq, slot: slot}
	i := len(s.q)
	s.q = append(s.q, e)
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(s.q[parent]) {
			break
		}
		s.q[i] = s.q[parent]
		i = parent
	}
	s.q[i] = e
}

// growRing doubles the ring (the first same-instant push allocates it: a
// world as built holds none), oldest event first. It never shrinks; its
// high-water mark is one event chain's widest same-instant fan-out.
func (s *Sim[M]) growRing() {
	grown := make([]payload[M], max(2*len(s.ring), 16))
	for i := 0; i < s.n; i++ {
		grown[i] = s.ring[(s.head+i)&(len(s.ring)-1)]
	}
	s.ring, s.head = grown, 0
}

// Step runs the next event; it reports false when the queue is empty.
func (s *Sim[M]) Step() bool {
	var p payload[M]
	// The ring's head is next unless the heap still holds an event for
	// this instant. Either way the event's slot is freed before it fires
	// (it may queue more), cleared so the queue pins nothing it referenced.
	if n := len(s.q) - 1; s.n > 0 && (n < 0 || s.q[0].t > s.now) {
		p, s.ring[s.head] = s.ring[s.head], payload[M]{}
		s.head = (s.head + 1) & (len(s.ring) - 1)
		s.n--
	} else if n < 0 {
		return false
	} else {
		// Sift the last entry down from the root, then drop its old position.
		top, last, i := s.q[0], s.q[n], 0
		for c := 1; c < n; c = 2*i + 1 {
			if c+1 < n && s.q[c+1].before(s.q[c]) {
				c++
			}
			if !s.q[c].before(last) {
				break
			}
			s.q[i] = s.q[c]
			i = c
		}
		s.q[i] = last
		s.q = s.q[:n]
		p, s.slab[top.slot] = s.slab[top.slot], payload[M]{}
		s.free = append(s.free, top.slot)
		s.now = top.t
	}
	if p.fn != nil {
		p.fn()
	} else {
		s.handle(p.msg)
	}
	return true
}

// Run executes events until the queue drains.
func (s *Sim[M]) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled later stay queued.
func (s *Sim[M]) RunUntil(t float64) {
	for (s.n > 0 && s.now <= t) || (len(s.q) > 0 && s.q[0].t <= t) {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}
