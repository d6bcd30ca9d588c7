package iflow

import "math/bits"

// window is one input's buffered tuples in a symmetric hash join: a
// power-of-two ring holding the live tuples in arrival order, threaded by
// per-bucket chains so a probe walks only the tuples whose key hashes
// where the probing tuple's does.
//
// A chain links same-bucket tuples oldest to newest, so a walk yields
// matches in arrival order — the order a scan of the whole window yields
// them, which is the order they enter the event queue. Expiry only ever
// pops the ring's head, and everything that arrived before the head is
// already gone, so the head is also the first link of its chain: popping
// it advances that bucket's head and nothing is unlinked from the middle.
type window struct {
	ring  []slot
	bkt   []chain // len(ring) buckets, indexed by hash(Key) >> shift
	head  int     // ring index of the oldest live tuple
	n     int     // live tuples
	shift uint    // 64 - log2(len(ring))
}

type slot struct {
	t    Tuple
	next int32 // ring index of the next-arrived tuple in this bucket, or -1
}

// chain is one bucket's list ends as ring indices; head is -1 when the
// bucket is empty, and tail is meaningful only when head is not.
type chain struct{ head, tail int32 }

const (
	minWindow = 16                 // the smallest ring allocated
	hashMul   = 0x9E3779B97F4A7C15 // 2^64 / golden ratio: Fibonacci hashing
)

// bucket hashes a key to its chain. Keys are not confined to
// [0, KeyDomain) — an aggregate emits its count as the key — so this is a
// multiplicative hash of the whole int64, never a direct index.
func (w *window) bucket(key int64) *chain { return &w.bkt[uint64(key)*hashMul>>w.shift] }

// at returns the i-th live tuple in arrival order, 0 <= i < w.n.
func (w *window) at(i int) Tuple { return w.ring[(w.head+i)&(len(w.ring)-1)].t }

// first returns the ring index of the oldest tuple sharing key's bucket,
// or -1; follow slot.next from there and compare keys.
func (w *window) first(key int64) int32 {
	if w.n == 0 {
		return -1
	}
	return w.bucket(key).head
}

// insert appends a tuple at the ring's tail and at its chain's tail. The
// ring is allocated on the first insert and doubles when full.
func (w *window) insert(t Tuple) {
	if w.n == len(w.ring) {
		w.resize(max(minWindow, 2*len(w.ring)))
	}
	i := int32((w.head + w.n) & (len(w.ring) - 1))
	w.ring[i] = slot{t: t, next: -1}
	if b := w.bucket(t.Key); b.head < 0 {
		b.head, b.tail = i, i
	} else {
		w.ring[b.tail].next = i
		b.tail = i
	}
	w.n++
}

// expire pops tuples born before horizon off the ring's head, stopping at
// the first survivor by arrival (Born is not monotone in arrival order:
// join outputs carry the minimum of their inputs'), and returns how many
// went. A ring left with more than 4 × live + 64 slots is rebuilt a quarter
// to a half full, so a rate drop gives the space back while a small window
// fluctuating around a power of two never resizes back and forth.
func (w *window) expire(horizon float64) int {
	popped := 0
	for w.n > 0 && w.ring[w.head].t.Born < horizon {
		s := &w.ring[w.head]
		w.bucket(s.t.Key).head = s.next
		w.head = (w.head + 1) & (len(w.ring) - 1)
		w.n--
		popped++
	}
	if len(w.ring) > 4*w.n+64 {
		c := minWindow
		for c < 2*w.n {
			c <<= 1
		}
		w.resize(c)
	}
	return popped
}

// resize moves the live tuples into a ring of c slots (a power of two, at
// least w.n) and as many empty buckets, relinking them in arrival order.
func (w *window) resize(c int) {
	old := *w
	*w = window{ring: make([]slot, c), bkt: make([]chain, c), shift: uint(64 - bits.TrailingZeros(uint(c)))}
	for i := range w.bkt {
		w.bkt[i].head = -1
	}
	for i := 0; i < old.n; i++ {
		w.insert(old.at(i))
	}
}
