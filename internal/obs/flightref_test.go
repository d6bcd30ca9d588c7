package obs

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ringTracer is the flight recorder as it was before the segment log: a
// ring of whole Events. Emit, Len, Dropped and Snapshot are kept verbatim
// (the journal left out) as the oracle the log is held to.
type ringTracer struct {
	enabled atomic.Bool
	seq     atomic.Uint64

	mu    sync.Mutex
	ring  []Event // appended to until len == capacity, overwritten after
	size  int     // requested capacity (0 = DefaultFlightSize)
	total uint64  // events ever recorded; write cursor is total % capacity
}

// capacity is the ring's full size. Callers hold t.mu.
func (t *ringTracer) capacity() int {
	if t.size <= 0 {
		return DefaultFlightSize
	}
	return t.size
}

// Emit records one event and returns its assigned ID, or 0 when the
// recorder is disarmed (or t is nil). The disarmed path is a single
// atomic load with zero allocations; callers pass Event by value so the
// literal lives on the stack.
func (t *ringTracer) Emit(e Event) uint64 {
	if t == nil || !t.enabled.Load() {
		return 0
	}
	e.ID = t.seq.Add(1)
	if e.Wall == 0 {
		e.Wall = time.Now().UnixNano()
	}
	t.mu.Lock()
	if n := t.capacity(); len(t.ring) == n {
		t.ring[t.total%uint64(n)] = e
	} else {
		if len(t.ring) == cap(t.ring) {
			// Grow geometrically from 64, never past the ring's size.
			grown := make([]Event, len(t.ring), min(n, max(64, 2*len(t.ring))))
			copy(grown, t.ring)
			t.ring = grown
		}
		t.ring = append(t.ring, e)
	}
	t.total++
	t.mu.Unlock()
	return e.ID
}

// Len returns how many events are currently held in the ring.
func (t *ringTracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ring == nil || t.total < uint64(len(t.ring)) {
		return int(t.total)
	}
	return len(t.ring)
}

// Dropped returns how many events have been overwritten by ring
// wrap-around — the gap between what happened and what Snapshot can
// still show.
func (t *ringTracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ring == nil || t.total <= uint64(len(t.ring)) {
		return 0
	}
	return t.total - uint64(len(t.ring))
}

// Snapshot copies the ring's events in emission order (oldest first),
// fully detached from the live buffer.
func (t *ringTracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ring == nil || t.total == 0 {
		return nil
	}
	n := uint64(len(t.ring))
	held := t.total
	if held > n {
		held = n
	}
	out := make([]Event, 0, held)
	for i := t.total - held; i < t.total; i++ {
		out = append(out, t.ring[i%n])
	}
	return out
}

// refSizes are the capacities the log is held to the ring at: one event,
// a segment of seven, one either side of a full segment, 258 (where the
// oldest segment's last event is the oldest one held just as the next
// segment opens), and the default.
var refSizes = [...]int{1, 7, 255, 256, 257, 258, 0}

// edgeFloats are the values VTime, Value and Aux draw from: both zeros,
// NaNs with and without payload and sign, both infinities, the smallest
// denormals, a few plain values, and the whole numbers either side of
// 2^53, where a compact Aux stops. Index len-1 reads raw bits instead.
var edgeFloats = [...]float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff0000000000001),
	math.Inf(1), math.Inf(-1), 5e-324, -5e-324,
	1, -1, 0.5, 1e300, 12.5, 1<<53 - 1, 1 << 53, 0,
}

// edgeInts are the values Query and Node draw from. Index len-1 reads a
// raw value instead.
var edgeInts = [...]int{NoID, 0, 1, 7, 4095, math.MinInt, math.MaxInt, 0}

// refDetails are twelve distinct details, more than the dedupe window.
var refDetails = func() []string {
	out := make([]string, 12)
	for i := range out {
		out[i] = "d" + strconv.Itoa(i)
	}
	return out
}()

// refAudit stands for a prepared statement's rewrite audit: one long
// string every rewrite_applied event of the statement shares.
var refAudit = strings.Repeat("push-predicates: stream-1.attr0 < 0.5; ", 4)

// appendEvents decodes data into events appended to evs, at most limit of
// them. Each event reads five selector bytes (kind, pass, gate; parent,
// trace, wall; query, node; VTime, Value; Aux, Detail), and a selector
// that picks "raw" reads eight more bytes as the value. Parents cover
// roots, the previous events, Parent > ID, Parent = ID and IDs of the
// other tracer; traces cover QueryTrace(Query) and unrelated values;
// walls step forwards, jump backwards and hit both extremes. finite maps
// NaN and ±Inf to 0.25, so JSON can encode the events.
func appendEvents(evs []Event, data []byte, limit int, finite bool, other *Tracer) []Event {
	raw := func() uint64 {
		var b [8]byte
		data = data[copy(b[:], data):]
		return binary.LittleEndian.Uint64(b[:])
	}
	float := func(sel byte) float64 {
		v := edgeFloats[sel]
		if int(sel) == len(edgeFloats)-1 {
			v = math.Float64frombits(raw())
		}
		if finite && (math.IsNaN(v) || math.IsInf(v, 0)) {
			v = 0.25
		}
		return v
	}
	integer := func(sel byte) int {
		if int(sel) == len(edgeInts)-1 {
			return int(raw())
		}
		return edgeInts[sel]
	}
	var wall int64 = 1 << 60
	if len(evs) > 0 {
		wall = evs[len(evs)-1].Wall
	}
	for len(evs) < limit && len(data) >= 5 {
		b := data[:5]
		data = data[5:]
		id := uint64(len(evs) + 1)
		e := Event{Kind: Kind(b[0] & 15), Pass: b[0]&16 != 0, Gate: [4]string{"", "drift", "", "cooldown"}[b[0]>>5&3]}
		e.Query, e.Node = integer(b[2]&7), integer(b[2]>>3&7)
		switch b[1] & 7 {
		case 1:
			e.Parent = id - 1
		case 2:
			e.Parent = id - 3
		case 3:
			e.Parent = id + 5
		case 4:
			e.Parent = id
		case 5:
			e.Parent = other.Emit(Event{Kind: KindPlanStarted})
		case 6:
			e.Parent = math.MaxUint64
		case 7:
			e.Parent = raw()
		}
		switch q := QueryTrace(e.Query); b[1] >> 3 & 7 {
		case 1, 2:
			e.Trace = q
		case 3:
			e.Trace = q + 1
		case 4:
			e.Trace = q - 1
		case 5:
			e.Trace = math.MaxUint64
		case 6:
			e.Trace = raw()
		case 7:
			e.Trace = 1
		}
		switch b[1] >> 6 {
		case 0:
			wall += 30_000 + int64(b[4])
		case 1:
			wall -= 1e9
		case 2:
			wall = [2]int64{math.MinInt64, math.MaxInt64}[b[3]&1]
		case 3:
			wall = int64(raw())
		}
		if wall == 0 { // 0 would be stamped with the time of emission
			wall = 1
		}
		e.Wall = wall
		e.VTime, e.Value, e.Aux = float(b[3]&15), float(b[3]>>4), float(b[4]&15)
		switch d := b[4] >> 4; d {
		case 0:
		case 1:
			e.Detail = "top-down"
		case 2:
			e.Detail = refAudit
		case 3:
			e.Detail = strconv.FormatUint(raw(), 36)
		default:
			e.Detail = refDetails[d-4]
		}
		evs = append(evs, e)
	}
	return evs
}

// structuredEvents opens every table case: twelve distinct details in a
// row (more than the dedupe window), then the first one again, with Gate
// alternating between empty and set.
func structuredEvents() []Event {
	var evs []Event
	for i := range 14 {
		e := Event{Kind: KindGateDecision, Query: i, Node: NoID, Wall: int64(1000 + i), Detail: refDetails[i%12]}
		if i%2 == 1 {
			e.Gate = "drift"
		}
		evs = append(evs, e)
	}
	return evs
}

// sameEvent is Event equality with floats compared by bits, so NaN equals
// itself and −0 differs from +0.
func sameEvent(a, b Event) bool {
	for _, p := range [...][2]float64{{a.VTime, b.VTime}, {a.Value, b.Value}, {a.Aux, b.Aux}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	a.VTime, a.Value, a.Aux = 0, 0, 0
	b.VTime, b.Value, b.Aux = 0, 0, 0
	return a == b
}

func sameEvents(a, b []Event) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, sameEvent)
}

// checkAgainstRing emits events into a Tracer of the given size and into
// the ring reference side by side. After every emit the returned ID, Len
// and Dropped must agree, and Snapshot must wherever snapAt says so; at
// the end both dumps must be byte-identical (and fail alike when a NaN or
// an infinity is held); the log's dump error is returned.
func checkAgainstRing(t *testing.T, size int, events []Event, snapAt func(i int) bool) error {
	t.Helper()
	tr, ref := NewTracer(size), &ringTracer{size: size}
	tr.Enable()
	ref.enabled.Store(true)
	for i, e := range events {
		if got, want := tr.Emit(e), ref.Emit(e); got != want {
			t.Fatalf("size %d, emit %d: id %d, ring %d", size, i+1, got, want)
		}
		if tr.Len() != ref.Len() || tr.Dropped() != ref.Dropped() {
			t.Fatalf("size %d after %d emits: len %d dropped %d, ring %d and %d",
				size, i+1, tr.Len(), tr.Dropped(), ref.Len(), ref.Dropped())
		}
		if snapAt(i + 1) {
			if got, want := tr.Snapshot(), ref.Snapshot(); !sameEvents(got, want) {
				t.Fatalf("size %d after %d emits: snapshot of %d events differs from the ring's %d",
					size, i+1, len(got), len(want))
			}
		}
	}
	var got, want bytes.Buffer
	gerr, werr := tr.WriteJSONL(&got), WriteEventsJSONL(&want, ref.Snapshot())
	if !bytes.Equal(got.Bytes(), want.Bytes()) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("size %d: dumps differ (%d bytes, err %v; ring %d bytes, err %v)", size, got.Len(), gerr, want.Len(), werr)
	}
	return gerr
}

// snapshotAt says after which emits Snapshot is compared: every one below
// the default size; at the default size (where every one would mean
// decoding tens of millions of events per table case) every one that
// opens, fills or follows a segment, every one within two of a multiple
// of the size, and every 97th.
func snapshotAt(size int) func(i int) bool {
	return func(i int) bool {
		at, n := i%segmentEvents, DefaultFlightSize
		return size != 0 || at <= 1 || at == segmentEvents-1 || i%n <= 2 || i%n >= n-2 || i%97 == 0
	}
}

// TestFlightLogMatchesRingReference is FuzzFlightRecorder's seeded table:
// at every reference size, a structured opening and then seeded random
// events, with and without NaN and infinities, through the third wrap.
func TestFlightLogMatchesRingReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 1))
	for _, size := range refSizes {
		n := cmp.Or(size, DefaultFlightSize)
		for _, finite := range []bool{false, true} {
			data := make([]byte, 16*(3*n+2))
			for i := range data {
				data[i] = byte(rng.Uint32())
			}
			other := NewTracer(4)
			other.Enable()
			other.Emit(Event{Kind: KindPlanStarted})
			events := appendEvents(structuredEvents(), data, 3*n+2, finite, other)
			err := checkAgainstRing(t, size, events, snapshotAt(size))
			if finite && err != nil {
				t.Fatalf("size %d: finite events failed to dump: %v", size, err)
			}
		}
	}
}

// compactSeed is n events whose Aux walks every non-raw edgeFloat —
// whole, fractional, −0, NaN, ±Inf, 2^53 and beyond, negative — while
// Query falls 4095 → 7 → 1 → 0, jumps to NoID, then to both extremes.
// At size 7 or 257 the walk straddles segment boundaries, where the
// Query and Wall delta bases restart.
func compactSeed(n int) []byte {
	queries := [...]byte{4, 3, 2, 1, 0, 6, 5, 2}
	data := make([]byte, 0, 5*n)
	for i := range n {
		data = append(data, byte(KindPlanChosen), 0, queries[i%len(queries)], byte(i%15), byte(i%15))
	}
	return data
}

// FuzzFlightRecorder holds the segment log to the ring reference on
// fuzzed event streams of up to 800 events (past the third wrap of 257):
// sizeSel picks one of refSizes, data is decoded by appendEvents.
func FuzzFlightRecorder(f *testing.F) {
	f.Add(uint8(1), false, compactSeed(45))
	f.Add(uint8(4), false, compactSeed(520))
	f.Add(uint8(0), false, []byte("\x00\x00\x00\x00\x00"))
	f.Add(uint8(1), false, bytes.Repeat([]byte{0x35, 0x6d, 0xb6, 0x21, 0xf7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, 40))
	f.Add(uint8(2), true, bytes.Repeat([]byte{0xf1, 0x41, 0x30, 0x76, 0x4f}, 600))
	f.Add(uint8(4), false, bytes.Repeat([]byte{0x12, 0xd7, 0x09, 0x2e, 0x9c, 1, 2, 3, 4, 5, 6, 7, 8}, 300))
	f.Add(uint8(5), true, bytes.Repeat([]byte{0x21, 0x0a, 0x28, 0x12, 0x20, 0x01, 0x09, 0x08, 0x00, 0x30}, 100))
	f.Fuzz(func(t *testing.T, sizeSel uint8, finite bool, data []byte) {
		size := refSizes[int(sizeSel)%len(refSizes)]
		other := NewTracer(4)
		other.Enable()
		checkAgainstRing(t, size, appendEvents(nil, data, 800, finite, other), snapshotAt(size))
	})
}
