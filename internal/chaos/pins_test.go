package chaos

import "testing"

// TestChaosPins compares 200-event default-shape runs against a committed
// table. The *Deterministic tests only compare a run with itself, so a
// refactor that changes every run the same way passes them; this one fails
// on any change to the schedule, the plans chosen, or a single tuple.
// Rows are Report.Summary lines — what `go run ./cmd/chaos -seed0 N
// -seeds 1 [-migrate]` prints after "events=200"; regenerate one only
// when the change in behaviour is intended.
func TestChaosPins(t *testing.T) {
	if testing.Short() {
		t.Skip("seven 200-event runs")
	}
	pins := []struct {
		seed             int64
		migrate, schemas bool
		want             string
	}{
		{1, false, false, "fail-node=28 idle=11 link-cost=48 query-arrive=36 query-undeploy=20 rate-shift=33 recover-node=24 transferred=154175 delivered=75323 dropped=86 deployed=4 cost=235819086.2"},
		{2, false, false, "fail-node=33 idle=15 link-cost=38 query-arrive=38 query-undeploy=12 rate-shift=35 recover-node=29 transferred=28998 delivered=185 dropped=98 deployed=1 cost=57837795.2"},
		{3, false, false, "fail-node=25 idle=13 link-cost=53 query-arrive=35 query-undeploy=14 rate-shift=35 recover-node=25 transferred=184503 delivered=80761 dropped=584 deployed=3 cost=504465557.9"},
		{1, true, false, "fail-node=26 idle=15 link-cost=39 query-arrive=34 query-migrate=29 query-undeploy=15 rate-shift=18 recover-node=24 transferred=48151 delivered=1812 dropped=106 deployed=2 cost=103182455.1"},
		{2, true, false, "fail-node=30 idle=18 link-cost=42 query-arrive=26 query-migrate=32 query-undeploy=12 rate-shift=22 recover-node=18 transferred=57272 delivered=31694 dropped=84 deployed=1 cost=346069616.0"},
		{3, true, false, "fail-node=29 idle=10 link-cost=43 query-arrive=31 query-migrate=23 query-undeploy=10 rate-shift=28 recover-node=26 transferred=1423997 delivered=894316 dropped=251 deployed=5 cost=9264830050.7"},
		{1, true, true, "fail-node=26 idle=15 link-cost=39 query-arrive=27 query-migrate=30 query-undeploy=14 rate-shift=28 recover-node=21 transferred=47324 delivered=23657 dropped=73 deployed=1 cost=613322449.0"},
	}
	for _, p := range pins {
		cfg := DefaultConfig(p.seed)
		cfg.Migrate = p.migrate
		cfg.Schemas = p.schemas
		w, err := New(cfg)
		if err != nil {
			t.Fatalf("seed %d: build: %v", p.seed, err)
		}
		rep, err := w.Run()
		if err != nil {
			t.Fatalf("%v\ntrace:\n%s", err, rep.TraceString())
		}
		if got := rep.Summary(); got != p.want {
			t.Errorf("seed %d migrate=%v schemas=%v:\n got %s\nwant %s", p.seed, p.migrate, p.schemas, got, p.want)
		}
	}
}
