package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"hnp"
	"hnp/internal/core"
	"hnp/internal/cql"
	"hnp/internal/query"
	"hnp/internal/query/rewrite"
	"hnp/internal/workload"
)

// oldShardFor is ShardFor's body before the hash was inlined.
func oldShardFor(shards int, tenant, cql string) int {
	h := fnv.New32a()
	io.WriteString(h, tenant)
	h.Write([]byte{0})
	io.WriteString(h, cql)
	return int(h.Sum32() % uint32(shards))
}

func TestShardForMatchesFNV(t *testing.T) {
	s, _ := newTestServer(t, DefaultConfig())
	long := strings.Repeat("SELECT * FROM stream-1, stream-2 -- ", 2000) // 70 KB
	cases := [][2]string{
		{"", ""}, {"", "SELECT * FROM stream-1"}, {"t", ""}, {"tenant-3", "SELECT * FROM stream-1, stream-4"},
		{"tenant", "-3"}, {"tenant-", "3"}, // the separator keeps these apart
		{"租户", "SELECT * FROM «flüsse», stream-7 WHERE x = 'Ω'"}, {"\x00", "\x00\x00"}, {"t", long}, {long, long},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(300))
		rng.Read(b)
		cases = append(cases, [2]string{fmt.Sprintf("tenant-%d", rng.Intn(9)), string(b)})
	}
	for _, c := range cases {
		if got, want := s.ShardFor(c[0], c[1]), oldShardFor(len(s.shards), c[0], c[1]); got != want {
			t.Errorf("ShardFor(%.20q, %.40q) = %d, FNV-1a says %d", c[0], c[1], got, want)
		}
	}
	if a := testing.AllocsPerRun(100, func() { s.ShardFor("tenant-3", long) }); a != 0 {
		t.Errorf("ShardFor allocates %g times per call", a)
	}
}

// Every shard plans over the one network the server built; what a shard
// owns is its hierarchy, registry and telemetry.
func TestServeShardsShareOneNetwork(t *testing.T) {
	s, _ := newTestServer(t, DefaultConfig())
	first := s.Shard(0)
	for i := 1; i < len(s.shards); i++ {
		sh := s.Shard(i)
		if sh.Graph != first.Graph || sh.Hierarchy.Paths() != first.Hierarchy.Paths() || sh.Catalog != first.Catalog {
			t.Errorf("shard %d has a network of its own: graph %p/%p paths %p/%p catalog %p/%p",
				i, sh.Graph, first.Graph, sh.Hierarchy.Paths(), first.Hierarchy.Paths(), sh.Catalog, first.Catalog)
		}
		if sh.Hierarchy == first.Hierarchy || sh.Registry == first.Registry || sh.Obs == first.Obs {
			t.Errorf("shard %d shares per-shard state with shard 0", i)
		}
	}
	if got := first.Catalog.NumStreams(); got != DefaultConfig().Streams {
		t.Errorf("shared catalog holds %d streams, want %d", got, DefaultConfig().Streams)
	}
}

// oldServer is the planning state of a server as NewServer used to build
// it and its deploy handler used to drive it: every shard a whole hnp.NewSystem
// with a graph, path snapshot and catalog of its own, every deploy parsed,
// instantiated and rewritten from its text.
type oldServer struct {
	shards []*hnp.System
	nextID []int
}

type oldDeployment struct {
	shard int
	q     *query.Query
	res   core.Result
	out   rewrite.Outcome
}

func newOldServer(t *testing.T, cfg Config) *oldServer {
	t.Helper()
	o := &oldServer{nextID: make([]int, cfg.Shards)}
	wcfg := workload.Default(cfg.Streams, 0)
	for i := 0; i < cfg.Shards; i++ {
		g := hnp.TransitStubNetwork(cfg.Nodes, cfg.Seed)
		sys, err := hnp.NewSystem(g, cfg.MaxCS, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		specs, sels, err := workload.CatalogSpec(wcfg, cfg.Nodes, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]hnp.StreamID, len(specs))
		for j, sp := range specs {
			ids[j] = sys.AddStream(sp.Name, sp.Rate, sp.Source)
		}
		for _, sel := range sels {
			sys.SetSelectivity(ids[sel.I], ids[sel.J], sel.Sel)
		}
		o.shards = append(o.shards, sys)
	}
	return o
}

func (o *oldServer) deploy(tenant, stmt string, sink int) (oldDeployment, error) {
	d := oldDeployment{shard: oldShardFor(len(o.shards), tenant, stmt)}
	sys := o.shards[d.shard]
	st, err := cql.Parse(sys.Catalog, stmt)
	if err != nil {
		return d, err
	}
	id := o.nextID[d.shard]
	o.nextID[d.shard]++
	if d.q, err = st.Query(id, hnp.NodeID(sink)); err != nil {
		return d, err
	}
	if d.out = rewrite.Apply(sys.Catalog, d.q, st.Pushdown()); d.out.NoOp {
		return d, nil
	}
	if d.res, err = sys.PlanQuery(d.q, hnp.AlgoTopDown, sys.Registry); err != nil {
		return d, err
	}
	sys.Registry.AdvertisePlan(d.q, d.res.Plan)
	return d, nil
}

func (o *oldServer) undeploy(d oldDeployment) int {
	if d.res.Plan == nil {
		return 0
	}
	return o.shards[d.shard].Registry.RetractPlan(d.q, d.res.Plan)
}

// TestServeMatchesPerShardSystems replays the hot and the cold statement
// mix of bench/ — plus statements that fail to parse and statements that
// fold to a no-op — against a server and against the old construction,
// FIFO undeploys holding W outstanding, and holds every answer equal.
// Along the way each shard's prepared table must hold exactly the distinct
// texts standing on it.
func TestServeMatchesPerShardSystems(t *testing.T) {
	mixes := []struct {
		name           string
		templates      int
		skew           float64
		minSrc, maxSrc int
	}{
		{"hot", 12, 1.1, 3, 3},
		{"cold", 4096, 0, 4, 6},
	}
	const w = 64
	n := 2000
	if testing.Short() {
		n = 300
	}
	for _, mix := range mixes {
		t.Run(mix.name, func(t *testing.T) {
			cfg := DefaultConfig()
			s, ts := newTestServer(t, cfg)
			old := newOldServer(t, cfg)
			tc := workload.DefaultTrace(7)
			tc.Templates, tc.MixSkew, tc.MinSources, tc.MaxSources = mix.templates, mix.skew, mix.minSrc, mix.maxSrc
			tc.UndeployFrac, tc.Rate, tc.Duration = 0, 1000, float64(n)/1000*1.2+1
			tr, err := workload.SynthesizeTrace(tc, streamNames(s), cfg.Nodes)
			if err != nil || len(tr.Events) < n {
				t.Fatalf("trace: %d events, %v", len(tr.Events), err)
			}

			type standing struct {
				id   int64
				text string
				old  oldDeployment
			}
			var fifo []standing
			checkTables := func(step string) {
				t.Helper()
				texts := make([]map[string]bool, cfg.Shards)
				for i := range texts {
					texts[i] = map[string]bool{}
				}
				for _, d := range fifo {
					if d.old.res.Plan != nil {
						texts[d.old.shard][d.text] = true
					}
				}
				for i := range texts {
					if got := s.Shard(i).Obs.Gauge("cql.prepared_entries").Value(); got != float64(len(texts[i])) {
						t.Fatalf("%s: shard %d's table holds %g entries, %d distinct texts stand on it", step, i, got, len(texts[i]))
					}
				}
			}
			retire := func() {
				t.Helper()
				d := fifo[0]
				fifo = fifo[1:]
				code, body := postJSON(t, fmt.Sprintf("%s/undeploy?id=%d", ts.URL, d.id), nil)
				var ur struct {
					Shard     int `json:"shard"`
					Retracted int `json:"ads_retracted"`
				}
				if err := json.Unmarshal(body, &ur); code != http.StatusOK || err != nil {
					t.Fatalf("undeploy %d: %d %s", d.id, code, body)
				}
				if want := old.undeploy(d.old); ur.Retracted != want || ur.Shard != d.old.shard {
					t.Fatalf("undeploy %d (%s): shard %d retracted %d, old way shard %d retracted %d",
						d.id, d.text, ur.Shard, ur.Retracted, d.old.shard, want)
				}
				checkTables(fmt.Sprintf("undeploy %d", d.id))
			}

			for i, ev := range tr.Events[:n] {
				switch i % 50 {
				case 17:
					ev.CQL = "SELECT * FROM " + streamNames(s)[i%cfg.Streams] + ", no-such-stream"
				case 31:
					name := streamNames(s)[i%cfg.Streams]
					ev.CQL = fmt.Sprintf("SELECT * FROM %s WHERE %s.attr0 < 0.2 AND %s.attr0 > 0.7", name, name, name)
				}
				want, wantErr := old.deploy(ev.Tenant, ev.CQL, ev.Sink)
				code, body := postJSON(t, ts.URL+"/deploy", DeployRequest{CQL: ev.CQL, Sink: ev.Sink, Tenant: ev.Tenant})
				if wantErr != nil {
					var er ErrorResponse
					json.Unmarshal(body, &er)
					if code != http.StatusBadRequest || er.Error != wantErr.Error() {
						t.Fatalf("deploy #%d %q: %d %s, old way fails with %v", i, ev.CQL, code, body, wantErr)
					}
					checkTables(fmt.Sprintf("failed deploy #%d", i))
					continue
				}
				var dr DeployResponse
				if err := json.Unmarshal(body, &dr); code != http.StatusOK || err != nil {
					t.Fatalf("deploy #%d %q: %d %s", i, ev.CQL, code, body)
				}
				s.mu.RLock()
				got := s.deps[dr.ID].dep
				s.mu.RUnlock()
				if dr.Shard != want.shard || dr.QueryID != want.q.ID || dr.Plan != want.res.Plan.String() ||
					dr.Cost != want.res.Cost || dr.PlansConsidered != want.res.PlansConsidered ||
					dr.ReusedLeaves != want.res.Plan.DerivedLeaves() {
					t.Fatalf("deploy #%d %q:\n got %+v\nwant shard %d query %d plan %s cost %v considered %v",
						i, ev.CQL, dr, want.shard, want.q.ID, want.res.Plan, want.res.Cost, want.res.PlansConsidered)
				}
				if !reflect.DeepEqual(*got.Rewrite, want.out) {
					t.Fatalf("deploy #%d %q: rewrite outcome\n got %+v\nwant %+v", i, ev.CQL, *got.Rewrite, want.out)
				}
				wantQ := *want.q
				if !reflect.DeepEqual(*got.Query, wantQ) {
					t.Fatalf("deploy #%d %q: query\n got %+v\nwant %+v", i, ev.CQL, *got.Query, wantQ)
				}
				fifo = append(fifo, standing{dr.ID, ev.CQL, want})
				checkTables(fmt.Sprintf("deploy #%d", i))
				if len(fifo) > w {
					retire()
				}
			}
			for len(fifo) > 0 {
				retire()
			}
			hits := int64(0)
			for i := 0; i < cfg.Shards; i++ {
				sys := s.Shard(i)
				hits += sys.Obs.Counter("cql.prepared_hits").Value()
				if sys.Registry.Len() != 0 || old.shards[i].Registry.Len() != 0 {
					t.Errorf("shard %d: %d advertisements left, old way %d", i, sys.Registry.Len(), old.shards[i].Registry.Len())
				}
			}
			if hits == 0 {
				t.Error("vacuous: no deploy hit a prepared statement")
			}
			if st := s.Stats(); st.Outstanding != 0 || st.Deploys != st.Undeploys {
				t.Errorf("accounting after the drain: %+v", st)
			}
		})
	}
}

// TestShardChoiceNeverChangesThePlan: every shard plans over one network
// with a hierarchy built from one seed, so the shard a statement lands on
// never changes its plan or cost (ROADMAP item 4(c)). 200 seeded
// statements of 2–5 streams, half with a predicate, are planned through
// every empty shard's PlanCQL with Top-Down and with Bottom-Up.
func TestShardChoiceNeverChangesThePlan(t *testing.T) {
	cfg := DefaultConfig()
	s, _ := newTestServer(t, cfg)
	if cfg.Shards < 2 {
		t.Fatalf("vacuous: %d shard", cfg.Shards)
	}
	names := streamNames(s)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		from := make([]string, 2+rng.Intn(4))
		for j, p := range rng.Perm(len(names))[:len(from)] {
			from[j] = names[p]
		}
		stmt := "SELECT * FROM " + strings.Join(from, ", ")
		if rng.Intn(2) == 0 {
			stmt += fmt.Sprintf(" WHERE %s.attr0 < %.3f", from[0], 0.2+0.75*rng.Float64())
		}
		sink := hnp.NodeID(rng.Intn(cfg.Nodes))
		for _, algo := range []hnp.Algorithm{hnp.AlgoTopDown, hnp.AlgoBottomUp} {
			want, err := s.Shard(0).PlanCQL(stmt, sink, algo)
			if err != nil || want.Plan == nil {
				t.Fatalf("#%d %q on shard 0: plan %v, %v", i, stmt, want.Plan, err)
			}
			for sh := 1; sh < cfg.Shards; sh++ {
				got, err := s.Shard(sh).PlanCQL(stmt, sink, algo)
				if err != nil || got.Plan.String() != want.Plan.String() || got.Cost != want.Cost {
					t.Fatalf("#%d %q %v: shard %d plans %s at %v (%v), shard 0 %s at %v",
						i, stmt, algo, sh, got.Plan, got.Cost, err, want.Plan, want.Cost)
				}
			}
		}
	}
}
