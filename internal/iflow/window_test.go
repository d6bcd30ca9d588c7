package iflow

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hnp/internal/des"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// scanOp is a join's state as receive kept it before the keyed window: two
// slices in arrival order. receiveScan is that receive's join branch
// verbatim — expire by prefix, scan the whole opposite window, append —
// with the runtime's counters and emit replaced by fields. It is the
// definition the ring-and-chain window is held to.
type scanOp struct {
	window      float64
	width       float64
	left, right []Tuple
	expired     int64
	out         []Tuple
}

func (op *scanOp) receiveScan(now float64, s side, t Tuple) {
	before := len(op.left) + len(op.right)
	op.left = expire(op.left, now-op.window)
	op.right = expire(op.right, now-op.window)
	if n := before - len(op.left) - len(op.right); n > 0 {
		op.expired += int64(n)
	}
	mine, other := &op.left, &op.right
	if s == rightSide {
		mine, other = &op.right, &op.left
	}
	for _, o := range *other {
		if o.Key == t.Key {
			out := Tuple{Key: t.Key, Size: op.width, Born: min(t.Born, o.Born)}
			op.out = append(op.out, out)
		}
	}
	*mine = append(*mine, t)
}

func expire(w []Tuple, horizon float64) []Tuple {
	i := 0
	for i < len(w) && w[i].Born < horizon {
		i++
	}
	return w[i:]
}

// contents copies a window out in arrival order.
func contents(w *window) []Tuple {
	out := make([]Tuple, w.n)
	for i := range out {
		out[i] = w.at(i)
	}
	return out
}

// checkChains verifies a window's links without following them: going
// through the live tuples in arrival order, each must be what its bucket's
// head or its bucket's previous tuple links to, the last of each bucket
// must end the chain, and a bucket nothing hashes to must be empty. The
// harness runs it after every step, so a cycle is reported where an insert
// formed it instead of hanging the next probe.
func checkChains(w *window) error {
	last := make([]int32, len(w.bkt))
	for b := range last {
		last[b] = -1
	}
	for i := 0; i < w.n; i++ {
		at := int32((w.head + i) & (len(w.ring) - 1))
		b := uint64(w.ring[at].t.Key) * hashMul >> w.shift
		if link := w.bkt[b].head; last[b] >= 0 {
			link = w.ring[last[b]].next
			if link != at {
				return fmt.Errorf("bucket %d: slot %d links to %d, the next arrival there is slot %d", b, last[b], link, at)
			}
		} else if link != at {
			return fmt.Errorf("bucket %d: head is slot %d, its oldest live tuple is slot %d", b, link, at)
		}
		last[b] = at
	}
	for b, at := range last {
		if at < 0 && w.bkt[b].head >= 0 {
			return fmt.Errorf("bucket %d: head is slot %d, nothing live hashes there", b, w.bkt[b].head)
		}
		if at >= 0 && w.ring[at].next >= 0 {
			return fmt.Errorf("bucket %d: chain runs on to slot %d past its newest tuple in slot %d", b, w.ring[at].next, at)
		}
	}
	return nil
}

// windowHarness runs one join operator on a runtime's whole per-tuple path
// — a feeder per side emits, the event queue delivers, receive joins —
// next to a scanOp fed the same tuples. The join's output goes to a filter
// that passes nothing, and the queue's handler records what lands there:
// the matches in event order, the order downstream operators and the
// residual filters' rng would see.
type windowHarness struct {
	tb   testing.TB
	rt   *Runtime
	feed [2]*Operator
	op   *Operator
	ref  scanOp
	got  []Tuple
	now  float64
	n    int // steps taken
}

func newWindowHarness(tb testing.TB) *windowHarness {
	h := &windowHarness{tb: tb, rt: New(netgraph.New(1), DefaultConfig(), 1)}
	down := &Operator{key: opKey{sig: "down"}, isFilter: true, refs: 1}
	h.rt.Sim = des.New(func(d delivery) {
		if d.op == down {
			h.got = append(h.got, d.t)
		}
		h.rt.settle(d)
	})
	h.op = &Operator{key: opKey{sig: "J"}, width: query.DefaultTupleWidth, refs: 1}
	h.rt.ops[down.key], h.rt.ops[h.op.key] = down, h.op
	feed(h.op, down, leftSide)
	for s := range h.feed {
		h.feed[s] = &Operator{key: opKey{sig: "feed", node: 0}, isBase: true, refs: 1}
		feed(h.feed[s], h.op, side(s))
	}
	h.ref = scanOp{window: Window, width: query.DefaultTupleWidth}
	return h
}

// step advances the clock by dt, feeds one tuple born age before the new
// now to both joins, and compares everything observable.
func (h *windowHarness) step(dt float64, s side, key int64, size, age float64) {
	h.tb.Helper()
	h.n++
	h.now += dt
	h.rt.Sim.RunUntil(h.now)
	tup := Tuple{Key: key, Size: size, Born: h.now - age}
	h.got, h.ref.out = h.got[:0], h.ref.out[:0]
	h.rt.emit(h.feed[s], tup)
	h.rt.Sim.RunUntil(h.now)
	h.ref.receiveScan(h.now, s, tup)

	if !slices.Equal(h.got, h.ref.out) {
		h.tb.Fatalf("step %d (t=%.3f key %d side %d): emitted %d matches, the scan emits %d; first difference at %d",
			h.n, h.now, key, s, len(h.got), len(h.ref.out), firstDiff(h.got, h.ref.out))
	}
	if h.rt.WindowExpired != h.ref.expired {
		h.tb.Fatalf("step %d: %d tuples expired, the scan expired %d", h.n, h.rt.WindowExpired, h.ref.expired)
	}
	var bytes float64
	for i, want := range [2][]Tuple{h.ref.left, h.ref.right} {
		w := &h.op.win[i]
		if !slices.Equal(contents(w), want) {
			h.tb.Fatalf("step %d side %d: window holds %d tuples, the scan's holds %d, or they differ in order",
				h.n, i, w.n, len(want))
		}
		for _, x := range want {
			bytes += x.Size
		}
		if c := len(w.ring); c > 4*w.n+64 || c&(c-1) != 0 {
			h.tb.Fatalf("step %d side %d: %d live tuples in a ring of %d", h.n, i, w.n, c)
		}
		if err := checkChains(w); err != nil {
			h.tb.Fatalf("step %d side %d: %v", h.n, i, err)
		}
	}
	if got := h.op.StateBytes(); got != bytes {
		h.tb.Fatalf("step %d: StateBytes %g, the scan's windows hold %g", h.n, got, bytes)
	}
}

// move retires the operator in favour of a fresh one under the same key,
// filled the way Migrate ships a moved join's state: left then right, each
// in arrival order. Retiring unlinks the old one from the feeders and the
// filter; the feeders are then rewired to the successor, and it to the
// filter.
func (h *windowHarness) move() {
	fresh := &Operator{key: h.op.key, width: h.op.width, refs: 1}
	h.op.buffered(func(s side, t Tuple) { fresh.win[s].insert(t) })
	down := h.op.subs[0].op
	h.rt.retire(h.op)
	h.rt.ops[fresh.key], h.op = fresh, fresh
	for s, f := range h.feed {
		feed(f, fresh, side(s))
	}
	feed(fresh, down, leftSide)
}

func firstDiff(a, b []Tuple) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// collidingKeys returns n distinct keys whose hashes agree in their top 16
// bits, so they share a bucket in every ring of up to 65,536 slots.
func collidingKeys(rng *rand.Rand, n int) []int64 {
	var w window
	w.resize(1 << 16)
	first := rng.Int63()
	keys := []int64{first}
	for len(keys) < n {
		if k := int64(rng.Uint64()); k != first && w.bucket(k) == w.bucket(first) && !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestWindowMatchesScan: the keyed window against the scan it replaced,
// compared after every tuple — the emitted match sequence (order and
// Born), the expired count, both windows' contents in order, StateBytes.
// Each trial strings together phases that change the key distribution (a
// three-key domain for long chains, the runtime's own domain, all of
// int64, keys at and past KeyDomain, a set that collides in one bucket),
// the arrival rate (a burst grows the ring with chains live across it, a
// drought expires nearly everything and shrinks it) and the age spread
// (tuples older than the head, some already past the horizon on arrival),
// and moves the operator Migrate-style now and then.
func TestWindowMatchesScan(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		h := newWindowHarness(t)
		collide := collidingKeys(rng, 6)
		domain := h.rt.cfg.KeyDomain
		keyOf := []func() int64{
			func() int64 { return rng.Int63n(3) },
			func() int64 { return rng.Int63n(50) },
			func() int64 { return rng.Int63n(domain) },
			func() int64 { return domain + rng.Int63n(1<<40) },
			func() int64 { return int64(rng.Uint64()) },
			func() int64 { return collide[rng.Intn(len(collide))] },
		}
		rates := []float64{30, 30, 3000, 0.3} // steady, steady, burst, drought
		var grown, shrunk, moves int
		for h.n < 12000 {
			key, rate := keyOf[rng.Intn(len(keyOf))], rates[rng.Intn(len(rates))]
			spread := []float64{2, 2, 1.5 * Window}[rng.Intn(3)]
			for left := 100 + rng.Intn(1200); left > 0 && h.n < 12000; left-- {
				if rng.Intn(1500) == 0 {
					h.move()
					moves++
				}
				caps := [2]int{len(h.op.win[0].ring), len(h.op.win[1].ring)}
				h.step(rng.ExpFloat64()/rate, side(rng.Intn(2)), key(), float64(50+rng.Intn(100)), spread*rng.Float64())
				for i, c := range caps {
					if now := len(h.op.win[i].ring); now > c && c > 0 {
						grown++
					} else if now < c {
						shrunk++
					}
				}
			}
		}
		if grown < 5 || shrunk < 5 || moves < 2 || h.ref.expired < 5000 {
			t.Errorf("trial %d: %d grows, %d shrinks, %d moves, %d expired; the schedule is too tame",
				trial, grown, shrunk, moves, h.ref.expired)
		}
	}
}

// FuzzWindow feeds the same oracle a byte-coded tuple stream, four bytes a
// tuple: side, key class and a move flag; the key within its class; the
// gap since the last tuple on a log scale; the tuple's age. An input is
// read for at most 1,024 tuples: a step costs as much as the windows hold.
func FuzzWindow(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{40, 400, 4000} {
		b := make([]byte, n)
		rng.Read(b)
		f.Add(b)
	}
	f.Add([]byte{0, 1, 90, 0, 1, 1, 90, 0, 0, 1, 255, 0, 1, 1, 0, 200})
	collide := collidingKeys(rng, 8)
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newWindowHarness(t)
		for data = data[:min(len(data), 4*1024)]; len(data) >= 4; data = data[4:] {
			if data[0]&0x80 != 0 && h.n%64 == 63 {
				h.move()
			}
			var key int64
			switch k := int64(data[1]); data[0] >> 1 & 7 {
			case 0, 1:
				key = k % 3
			case 2:
				key = k
			case 3:
				key = h.rt.cfg.KeyDomain + k<<32
			case 4:
				key = math.MinInt64 + k
			case 5:
				key = -k
			default:
				key = collide[k%int64(len(collide))]
			}
			// Gaps from 0.1 ms to 26 s, ages from 0 to 1.5 windows.
			dt := 1e-4 * math.Pow(1.05, float64(data[2]))
			h.step(dt, side(data[0]&1), key, float64(50+data[3]%7), float64(data[3])/255*1.5*Window)
		}
	})
}
