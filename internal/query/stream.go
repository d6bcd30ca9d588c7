// Package query models distributed continuous select-project-join queries:
// stream sources with rates and pairwise join selectivities, queries over
// subsets of streams delivered to sinks, and operator plan trees with
// physical placements. It is the shared vocabulary of every optimizer in
// this repository.
package query

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hnp/internal/netgraph"
)

// StreamID identifies a base stream source in the catalog.
type StreamID int

// Stream is a base data stream: a named source producing data at a fixed
// expected rate (in cost units per unit time, e.g. bytes/sec) from one
// physical network node.
type Stream struct {
	ID     StreamID
	Name   string
	Rate   float64
	Source netgraph.NodeID
}

type selKey struct{ a, b StreamID }

func mkSelKey(a, b StreamID) selKey {
	if a > b {
		a, b = b, a
	}
	return selKey{a, b}
}

// Catalog holds every base stream in the system together with the pairwise
// join selectivities the optimizers estimate costs with ("estimated
// selectivities of the query operators, measured online or using gathered
// statistics").
type Catalog struct {
	streams []Stream
	byName  map[string]StreamID // upper-cased name → stream, the latest on a clash
	sel     map[selKey]float64
	schemas map[StreamID]Schema
	version uint64 // bumped by every mutator
	// DefaultSel is the selectivity assumed for stream pairs without an
	// explicit entry.
	DefaultSel float64
}

// NewCatalog returns an empty catalog with the given default selectivity.
func NewCatalog(defaultSel float64) *Catalog {
	return &Catalog{byName: map[string]StreamID{}, sel: map[selKey]float64{}, schemas: map[StreamID]Schema{}, DefaultSel: defaultSel}
}

// SetSchema declares a stream's attribute schema (copied). Declaring
// schemas switches the planners' cost model for queries over this stream
// from rate-only to rate×width, and sizes the runtime's tuples.
func (c *Catalog) SetSchema(id StreamID, s Schema) {
	if id < 0 || int(id) >= len(c.streams) {
		panic(fmt.Sprintf("query: stream %d out of range", id))
	}
	c.schemas[id] = append(Schema(nil), s...)
	c.version++
}

// Schema returns a stream's declared schema (nil when undeclared).
func (c *Catalog) Schema(id StreamID) Schema { return c.schemas[id] }

// StreamWidth returns the full-tuple byte width of a stream, or 0 when no
// schema is declared ("width unknown").
func (c *Catalog) StreamWidth(id StreamID) float64 {
	if s, ok := c.schemas[id]; ok {
		return s.Width()
	}
	return 0
}

// Add registers a stream and returns its ID.
func (c *Catalog) Add(name string, rate float64, source netgraph.NodeID) StreamID {
	id := StreamID(len(c.streams))
	c.streams = append(c.streams, Stream{ID: id, Name: name, Rate: rate, Source: source})
	c.byName[strings.ToUpper(name)] = id
	c.version++
	return id
}

// Lookup finds a stream by name, case-insensitively. Of several streams
// registered under one name it finds the latest.
func (c *Catalog) Lookup(name string) (StreamID, bool) {
	id, ok := c.byName[strings.ToUpper(name)]
	return id, ok
}

// Version changes whenever the catalog does: whatever was derived from
// the catalog at one version (a parsed statement, its rewrite) holds for
// as long as Version returns that value.
func (c *Catalog) Version() uint64 { return c.version }

// NumStreams returns the number of registered streams.
func (c *Catalog) NumStreams() int { return len(c.streams) }

// Stream returns the stream with the given ID.
func (c *Catalog) Stream(id StreamID) Stream {
	if id < 0 || int(id) >= len(c.streams) {
		panic(fmt.Sprintf("query: stream %d out of range", id))
	}
	return c.streams[id]
}

// SetRate updates a stream's expected rate — how measured statistics are
// fed back into the planning model.
func (c *Catalog) SetRate(id StreamID, rate float64) {
	if id < 0 || int(id) >= len(c.streams) {
		panic(fmt.Sprintf("query: stream %d out of range", id))
	}
	if rate < 0 {
		panic(fmt.Sprintf("query: negative rate %g", rate))
	}
	c.streams[id].Rate = rate
	c.version++
}

// SetSelectivity records the join selectivity between streams a and b
// (order-insensitive).
func (c *Catalog) SetSelectivity(a, b StreamID, sel float64) {
	if sel < 0 {
		panic(fmt.Sprintf("query: negative selectivity %g", sel))
	}
	c.sel[mkSelKey(a, b)] = sel
	c.version++
}

// Selectivity returns the join selectivity between streams a and b,
// falling back to DefaultSel.
func (c *Catalog) Selectivity(a, b StreamID) float64 {
	if s, ok := c.sel[mkSelKey(a, b)]; ok {
		return s
	}
	return c.DefaultSel
}

// SigOf returns the canonical signature of a set of base streams: the
// sorted IDs joined with '|'. Two subqueries over the same stream set have
// the same signature; the advertisement registry is keyed by it.
func SigOf(ids []StreamID) string {
	var buf [64]byte
	return string(appendStreamSig(buf[:0], ids))
}

// appendStreamSig appends SigOf(ids) to b.
func appendStreamSig(b []byte, ids []StreamID) []byte {
	var idBuf [MaxSources]StreamID
	sorted := append(idBuf[:0], ids...)
	slices.Sort(sorted)
	for i, id := range sorted {
		if i > 0 {
			b = append(b, '|')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return b
}
