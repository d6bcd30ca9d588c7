package iflow

import (
	"testing"

	"hnp/internal/netgraph"
	"hnp/internal/obs"
)

// TestStatsZeroWindow: a freshly built runtime must report all-zero
// statistics — counts and rates alike — never NaN or a division panic.
func TestStatsZeroWindow(t *testing.T) {
	g := netgraph.Line(2, 0.001)
	rt := New(g, DefaultConfig(), 1)
	if got := rt.CostRate(); got != 0 {
		t.Errorf("CostRate on fresh runtime = %g, want 0", got)
	}
	s := rt.Stats()
	if s.TuplesTransferred != 0 || s.TuplesDropped != 0 || s.WindowExpired != 0 {
		t.Errorf("fresh counts non-zero: %+v", s)
	}
	if got := s.CostRate(); got != 0 {
		t.Errorf("Stats.CostRate on zero window = %g, want 0", got)
	}
	var sink *SinkStats
	if got := sink.MeanLatency(); got != 0 {
		t.Errorf("nil SinkStats MeanLatency = %g", got)
	}
	empty := &SinkStats{}
	if got := empty.MeanLatency(); got != 0 {
		t.Errorf("empty SinkStats MeanLatency = %g", got)
	}
	if got := empty.Rate(0); got != 0 {
		t.Errorf("SinkStats.Rate over zero window = %g", got)
	}
}

// TestStatsCountsAfterRun: after a real run, counts are positive, rates
// are consistent with the counts, and the obs counters mirror the fields.
func TestStatsCountsAfterRun(t *testing.T) {
	w := makeTestWorld(t, 11)
	rt := New(w.g, DefaultConfig(), 42)
	reg := obs.NewRegistry()
	rt.BindObs(reg)
	if err := rt.Deploy(w.q, w.plan, w.cat, 100); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(100)

	s := rt.Stats()
	if s.TuplesTransferred == 0 {
		t.Error("no tuples transferred")
	}
	if s.WindowExpired == 0 {
		t.Error("no window expirations over a 100s run with a 10s window")
	}
	if s.Elapsed != 100 {
		t.Errorf("elapsed %g, want 100", s.Elapsed)
	}
	if s.CostRate() != rt.CostRate() {
		t.Errorf("Stats.CostRate %g != Runtime.CostRate %g", s.CostRate(), rt.CostRate())
	}
	sink := rt.Sink(w.q.ID)
	if sink.MeanLatency() <= 0 {
		t.Error("mean latency not positive after deliveries")
	}
	if got := sink.Rate(s.Elapsed); got != float64(sink.Tuples)/100 {
		t.Errorf("sink rate %g inconsistent with %d tuples over 100s", got, sink.Tuples)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("iflow.tuples_transferred"); got != s.TuplesTransferred {
		t.Errorf("obs transferred %d != %d", got, s.TuplesTransferred)
	}
	if got := snap.Counter("iflow.window_expired"); got != s.WindowExpired {
		t.Errorf("obs expired %d != %d", got, s.WindowExpired)
	}
	if got := snap.Gauge("iflow.bytes_cost"); got != s.TotalCost {
		t.Errorf("obs bytes_cost %g != %g", got, s.TotalCost)
	}
}

// TestDroppedTuplesCounted: undeploying a query while its tuples are in
// flight must surface as an explicit drop count, not silence.
func TestDroppedTuplesCounted(t *testing.T) {
	w := makeTestWorld(t, 12)
	rt := New(w.g, DefaultConfig(), 9)
	if err := rt.Deploy(w.q, w.plan, w.cat, 1000); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(5)
	if err := rt.Undeploy(w.q.ID); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(5)
	if rt.Stats().TuplesDropped == 0 {
		t.Error("in-flight tuples vanished without a drop count")
	}
}
