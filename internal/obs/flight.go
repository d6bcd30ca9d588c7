package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultFlightSize is the ring capacity of a Tracer built with no size
// of its own: enough to hold several full chaos runs or minutes of
// production decisions, small enough (~a few hundred KB) to leave armed
// permanently.
const DefaultFlightSize = 4096

// Tracer is the flight recorder: a fixed-size ring buffer of the most
// recent trace events, plus an optional streaming JSONL journal. It is
// designed to be left armed in production ("always-on"): emission is one
// atomic load when disarmed, and an atomic increment and a mutex-guarded
// slot write when armed. The ring grows to its size as events arrive — an
// armed recorder nothing has happened to holds no ring — and from the
// emission that fills it on, an armed emit overwrites a slot and allocates
// nothing (journal writes aside).
//
// A nil *Tracer is a valid no-op handle, like every other obs handle. The
// Tracer's armed state is independent of the package-level Enabled
// switch, so the flight recorder can run with metrics off (the chaos
// harness does exactly that).
type Tracer struct {
	enabled atomic.Bool
	seq     atomic.Uint64

	mu      sync.Mutex
	ring    []Event // appended to until len == capacity, overwritten after
	size    int     // requested capacity (0 = DefaultFlightSize)
	total   uint64  // events ever recorded; write cursor is total % capacity
	journal io.Writer
	jerr    error
}

// NewTracer returns a disarmed tracer whose ring will hold size events
// (size <= 0 means DefaultFlightSize). The ring itself is allocated as
// events arrive, so dormant and idle tracers cost a few words.
func NewTracer(size int) *Tracer { return &Tracer{size: size} }

// capacity is the ring's full size. Callers hold t.mu.
func (t *Tracer) capacity() int {
	if t.size <= 0 {
		return DefaultFlightSize
	}
	return t.size
}

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

// SetJournal attaches a streaming JSONL sink: every subsequent event is
// encoded as one JSON line at emission time, in order, under the ring
// mutex. Pass nil to detach. A journal write error detaches the journal
// and is reported by JournalErr — emission itself never fails.
func (t *Tracer) SetJournal(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.journal = w
	t.jerr = nil
	t.mu.Unlock()
}

// JournalErr returns the error that detached the journal, if any.
func (t *Tracer) JournalErr() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jerr
}

// Emit records one event and returns its assigned ID, or 0 when the
// recorder is disarmed (or t is nil). The disarmed path is a single
// atomic load with zero allocations; callers pass Event by value so the
// literal lives on the stack.
func (t *Tracer) Emit(e Event) uint64 {
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
	if t.journal != nil {
		if b, err := json.Marshal(e); err != nil {
			t.jerr, t.journal = err, nil
		} else {
			b = append(b, '\n')
			if _, err := t.journal.Write(b); err != nil {
				t.jerr, t.journal = err, nil
			}
		}
	}
	t.mu.Unlock()
	return e.ID
}

// Len returns how many events are currently held in the ring.
func (t *Tracer) Len() int {
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
func (t *Tracer) Dropped() uint64 {
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
func (t *Tracer) Snapshot() []Event {
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

// WriteJSONL dumps the ring as JSON lines, oldest first. This is the
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
