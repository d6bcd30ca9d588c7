package main

import (
	"fmt"
	"runtime"
	"time"

	"hnp/internal/stats"
)

// metric is one reported figure. N is the number of samples behind it:
// timings carry the count of timed operations (or of per-round medians),
// counts and ratios the number of observations they were taken over.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metrics maps a metric name to its value; one map per workload and pass.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// tally counts a pass's operations and keeps the first few failures.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.problems = append(t.problems, o.problems...)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median is the 50th percentile by nearest rank; 0 with no samples.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// heapLive settles the heap (two collections, so what the first one's
// finalizers and pools release is swept by the second) and returns the
// bytes of live objects. HeapInuse would add the free slots of every
// partly used span, which on one seed moved by 5% from run to run where
// the live bytes moved by 0.2%.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// procStats accumulates process-wide allocator and collector activity
// over the measured windows: the real figure behind a per-operation
// allocation count.
type procStats struct {
	mallocs, bytes uint64
	cycles         uint32
	pause          time.Duration
}

// measure runs fn and adds what the process allocated and collected
// meanwhile.
func (p *procStats) measure(fn func()) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	p.mallocs += b.Mallocs - a.Mallocs
	p.bytes += b.TotalAlloc - a.TotalAlloc
	p.cycles += b.NumGC - a.NumGC
	p.pause += time.Duration(b.PauseTotalNs - a.PauseTotalNs)
}

// report writes the figures per operation, over ops operations.
func (p *procStats) report(m metrics, ops float64) {
	if ops <= 0 {
		return
	}
	m.set("proc.allocs_per_op", "count", float64(p.mallocs)/ops, int(ops))
	m.set("proc.bytes_per_op", "bytes", float64(p.bytes)/ops, int(ops))
	m.set("proc.gc_cycles", "count", float64(p.cycles), 1)
	m.set("proc.gc_pause_ms", "ms", float64(p.pause.Nanoseconds())/1e6, int(p.cycles))
}

// allocsOver runs fn and returns the heap allocations it made per item.
// Only meaningful while nothing else in the process allocates: callers
// use it on the harness goroutine with the server idle.
func allocsOver(items int, fn func()) float64 {
	var p procStats
	p.measure(fn)
	return mean(float64(p.mallocs), items)
}
