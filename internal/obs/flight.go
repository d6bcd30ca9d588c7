package obs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultFlightSize is the event capacity of a Tracer built with no size
// of its own: enough to hold several full chaos runs or minutes of
// production decisions, small enough to leave armed permanently: at the
// ~18 B a serving-path event retains, a full recorder holds ~72 KB.
const DefaultFlightSize = 4096

// segmentEvents is how many records one segment holds (fewer when the
// recorder's size is smaller).
const segmentEvents = 256

// Tracer is the flight recorder: the most recent trace events, kept as an
// append-only log of compact variable-length records. It is designed to
// be left armed in production ("always-on"): emission is one atomic load
// when disarmed, and a mutex-guarded record append when armed.
//
// The log is a sequence of segments of min(segmentEvents, size) records
// each. It grows as events arrive — an armed recorder nothing has happened
// to holds no segment — and a segment is recycled, buffers and all, once
// every event in it has fallen out of the last size IDs, so once the log
// has wrapped an armed emit allocates nothing. Readers see exactly a ring
// of size events: Snapshot skips the older records of a segment not yet
// recycled.
//
// A nil *Tracer is a valid no-op handle, like every other obs handle. The
// Tracer's armed state is independent of the package-level Enabled
// switch, so the flight recorder can run with metrics off (the chaos
// harness does exactly that).
type Tracer struct {
	enabled atomic.Bool

	mu    sync.Mutex
	segs  []*segment // oldest first, each starting where the previous ends
	size  int        // requested capacity (0 = DefaultFlightSize)
	total uint64     // events ever recorded, so also the newest event's ID
}

// NewTracer returns a disarmed tracer that holds the last size events
// (size <= 0 means DefaultFlightSize). Segments are allocated as events
// arrive, so dormant and idle tracers cost a few words.
func NewTracer(size int) *Tracer { return &Tracer{size: size} }

// capacity is how many events the recorder holds. Callers hold t.mu.
func (t *Tracer) capacity() int {
	if t.size <= 0 {
		return DefaultFlightSize
	}
	return t.size
}

// held is how many of the recorded events readers can still see: the
// last held IDs. Callers hold t.mu.
func (t *Tracer) held() uint64 { return min(t.total, uint64(t.capacity())) }

// Enable arms the flight recorder.
func (t *Tracer) Enable() {
	if t != nil {
		t.enabled.Store(true)
	}
}

// Disable disarms the recorder. Recorded events remain readable.
func (t *Tracer) Disable() {
	if t != nil {
		t.enabled.Store(false)
	}
}

// On reports whether the recorder is armed. Emitters use it to guard
// Detail formatting:
//
//	if tr.On() {
//	    tr.Emit(obs.Event{..., Detail: fmt.Sprintf(...)})
//	}
func (t *Tracer) On() bool { return t != nil && t.enabled.Load() }

// Emit records one event and returns its assigned ID, or 0 when the
// recorder is disarmed (or t is nil). The disarmed path is a single
// atomic load with zero allocations; callers pass Event by value so the
// literal lives on the stack. IDs are assigned under the mutex, so the
// log, and so Snapshot, is in ID order.
func (t *Tracer) Emit(e Event) uint64 {
	if t == nil || !t.enabled.Load() {
		return 0
	}
	if e.Wall == 0 {
		e.Wall = time.Now().UnixNano()
	}
	t.mu.Lock()
	t.total++
	e.ID = t.total
	t.tail().append(&e)
	t.mu.Unlock()
	return e.ID
}

// tail returns the segment the event with ID t.total goes to. A full last
// segment is followed by the oldest one recycled, when all its events
// have aged out, or by a new one. Callers hold t.mu.
func (t *Tracer) tail() *segment {
	per := min(segmentEvents, t.capacity())
	if k := len(t.segs); k > 0 && t.segs[k-1].n < per {
		return t.segs[k-1]
	}
	var s *segment
	if len(t.segs) > 0 && t.segs[0].last() <= t.total-t.held() {
		s = t.segs[0]
		t.segs = slices.Delete(t.segs, 0, 1)
	} else {
		s = new(segment)
	}
	s.reset(t.total)
	t.segs = append(t.segs, s)
	return s
}

// Len returns how many events the recorder currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.held())
}

// Dropped returns how many events have aged out of the recorder — the
// gap between what happened and what Snapshot can still show.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - t.held()
}

// Snapshot decodes the held events in emission order (oldest first),
// fully detached from the live log.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	held := t.held()
	if held == 0 {
		return nil
	}
	gone := t.total - held
	out := make([]Event, 0, held)
	for _, s := range t.segs {
		if s.last() > gone {
			out = s.decode(out, gone)
		}
	}
	return out
}

// A segment holds the records of the events with IDs first .. first+n-1,
// back to back in buf. A record is
//
//	kind byte, flags byte,
//	varint ID−Parent (absent for a root), varint Trace−QueryTrace(Query),
//	varint Wall and varint Query, each less the previous record's (or 0),
//	varint Node, then VTime, Value, Aux: 8 little-endian bytes each when
//	not +0, but an Aux that is a whole number in (0, 2^53) as a uvarint,
//	Gate, Detail: uvarint index into strs, present when non-empty,
//
// where a varint is zigzag-encoded (encoding/binary) and the differences
// wrap, so every field value survives. The flags say which optional
// fields are present and how Aux is stored. Since only +0 is left out, −0
// and NaN are stored bit for bit. strs is deduplicated against its last
// dedupeWindow entries, which stores a prepared statement's shared
// rewrite audit or a planner's name once per segment rather than once
// per event.
type segment struct {
	first uint64
	n     int
	wall  int64 // Wall and Query of the newest record: the next one's
	query int   // delta bases, 0 for the first
	buf   []byte
	strs  []string
}

const dedupeWindow = 8

const (
	flagPass byte = 1 << iota
	flagParent
	flagVTime
	flagValue
	flagAux
	flagGate
	flagDetail
	flagAuxInt // Aux present as a uvarint rather than 8 bytes
)

// last is the ID of the segment's newest record.
func (s *segment) last() uint64 { return s.first + uint64(s.n) - 1 }

// reset empties s to take records from ID first on, keeping its buffers.
func (s *segment) reset(first uint64) {
	clear(s.strs)
	s.first, s.n, s.wall, s.query = first, 0, 0, 0
	s.buf, s.strs = s.buf[:0], s.strs[:0]
}

// append encodes e, whose ID is the segment's next one.
func (s *segment) append(e *Event) {
	auxInt := e.Aux > 0 && e.Aux < 1<<53 && e.Aux == math.Trunc(e.Aux) // not >= 0: −0 would come back +0
	flags := flagIf(e.Pass, flagPass) | flagIf(e.Parent != 0, flagParent) |
		flagIf(present(e.VTime), flagVTime) | flagIf(present(e.Value), flagValue) |
		flagIf(present(e.Aux) && !auxInt, flagAux) | flagIf(auxInt, flagAuxInt) |
		flagIf(e.Gate != "", flagGate) | flagIf(e.Detail != "", flagDetail)
	b := append(s.buf, byte(e.Kind), flags)
	if flags&flagParent != 0 {
		b = binary.AppendVarint(b, int64(e.ID-e.Parent))
	}
	b = binary.AppendVarint(b, int64(e.Trace-QueryTrace(e.Query)))
	b = binary.AppendVarint(b, e.Wall-s.wall)
	b = binary.AppendVarint(b, int64(e.Query-s.query))
	b = binary.AppendVarint(b, int64(e.Node))
	if flags&flagVTime != 0 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.VTime))
	}
	if flags&flagValue != 0 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Value))
	}
	if flags&flagAux != 0 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Aux))
	} else if auxInt {
		b = binary.AppendUvarint(b, uint64(e.Aux))
	}
	if flags&flagGate != 0 {
		b = binary.AppendUvarint(b, s.intern(e.Gate))
	}
	if flags&flagDetail != 0 {
		b = binary.AppendUvarint(b, s.intern(e.Detail))
	}
	s.buf, s.wall, s.query = b, e.Wall, e.Query
	s.n++
}

// intern returns v's index in strs, appending it unless one of the last
// dedupeWindow entries already equals it.
func (s *segment) intern(v string) uint64 {
	for i := len(s.strs) - 1; i >= max(0, len(s.strs)-dedupeWindow); i-- {
		if s.strs[i] == v {
			return uint64(i)
		}
	}
	s.strs = append(s.strs, v)
	return uint64(len(s.strs) - 1)
}

// decode appends the segment's events with IDs above gone to out.
func (s *segment) decode(out []Event, gone uint64) []Event {
	r, wall, query := recordReader{b: s.buf}, int64(0), 0
	for id := s.first; id <= s.last(); id++ {
		kind, flags := Kind(r.b[r.p]), r.b[r.p+1]
		r.p += 2
		e := Event{ID: id, Kind: kind, Pass: flags&flagPass != 0}
		if flags&flagParent != 0 {
			e.Parent = id - uint64(r.varint())
		}
		trace := uint64(r.varint())
		wall += r.varint()
		e.Wall = wall
		query += int(r.varint())
		e.Query = query
		e.Node = int(r.varint())
		e.Trace = trace + QueryTrace(e.Query)
		if flags&flagVTime != 0 {
			e.VTime = r.float()
		}
		if flags&flagValue != 0 {
			e.Value = r.float()
		}
		if flags&flagAux != 0 {
			e.Aux = r.float()
		} else if flags&flagAuxInt != 0 {
			e.Aux = float64(r.uvarint())
		}
		if flags&flagGate != 0 {
			e.Gate = s.strs[r.uvarint()]
		}
		if flags&flagDetail != 0 {
			e.Detail = s.strs[r.uvarint()]
		}
		if id > gone {
			out = append(out, e)
		}
	}
	return out
}

// recordReader reads a segment's records from position p on.
type recordReader struct {
	b []byte
	p int
}

func (r *recordReader) uvarint() uint64 {
	v, k := binary.Uvarint(r.b[r.p:])
	r.p += k
	return v
}

func (r *recordReader) varint() int64 {
	v, k := binary.Varint(r.b[r.p:])
	r.p += k
	return v
}

func (r *recordReader) float() float64 {
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.p:]))
	r.p += 8
	return v
}

// present reports whether a float field must be stored: anything but +0.
func present(v float64) bool { return v != 0 || math.Signbit(v) }

func flagIf(c bool, f byte) byte {
	if c {
		return f
	}
	return 0
}

// WriteJSONL dumps the held events as JSON lines, oldest first. This is the
// post-mortem surface: cmd/chaos calls it on invariant violations, smq
// serves it at /flight.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return WriteEventsJSONL(w, t.Snapshot())
}

// WriteEventsJSONL encodes an event slice as JSON lines, one event per
// line — the same format WriteJSONL produces and ParseJSONL reads back.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseJSONL reads a flight-recorder dump (or journal) back into events,
// skipping blank lines. The inverse of WriteJSONL, used by forensics
// tests and the timeline renderers.
func ParseJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return out, fmt.Errorf("obs: bad JSONL line %q: %w", line, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
