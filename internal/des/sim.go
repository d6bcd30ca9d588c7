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
type Sim[M any] struct {
	q      []entry      // binary min-heap by entry.before
	slab   []payload[M] // payloads of queued events
	free   []int32      // unused slab indices
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
func (s *Sim[M]) Pending() int { return len(s.q) }

// Schedule queues fn to run after delay seconds of virtual time. Negative
// delays are clamped to zero (run "now", after already-queued events at
// the current instant).
func (s *Sim[M]) Schedule(delay float64, fn func()) { s.At(s.now+max(delay, 0), fn) }

// At queues fn at absolute virtual time t; times in the past run at the
// current instant.
func (s *Sim[M]) At(t float64, fn func()) { s.push(max(t, s.now), payload[M]{fn: fn}) }

// Send queues msg for the handler after delay seconds, clamped like
// Schedule's and FIFO with closures queued for the same instant.
func (s *Sim[M]) Send(delay float64, msg M) { s.push(s.now+max(delay, 0), payload[M]{msg: msg}) }

func (s *Sim[M]) push(t float64, p payload[M]) {
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

// Step runs the next event; it reports false when the queue is empty.
func (s *Sim[M]) Step() bool {
	n := len(s.q) - 1
	if n < 0 {
		return false
	}
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
	// Free the slot before firing (the event may queue more), cleared so
	// the slab pins nothing the event referenced.
	p := s.slab[top.slot]
	s.slab[top.slot] = payload[M]{}
	s.free = append(s.free, top.slot)
	s.now = top.t
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
	for len(s.q) > 0 && s.q[0].t <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}
