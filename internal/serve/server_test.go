package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hnp"
	"hnp/internal/query"
	"hnp/internal/workload"
)

// testConfig returns a small-but-real server shape: two shards over a
// 48-node network so suites stay fast.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.Nodes = 48
	cfg.MaxCS = 16
	cfg.Streams = 12
	return cfg
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts v (pre-marshaled bytes pass through) and returns the
// status code and body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	var body []byte
	switch b := v.(type) {
	case []byte:
		body = b
	case nil:
	default:
		var err error
		if body, err = json.Marshal(v); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

const testStmt = "SELECT * FROM stream-1, stream-4 WHERE stream-1.temp < 0.6"

// TestServeLifecycle walks the full deploy→explain→undeploy lifecycle
// over the wire and checks the planning-level bookkeeping unwinds.
func TestServeLifecycle(t *testing.T) {
	s, ts := newTestServer(t, testConfig())

	code, body := postJSON(t, ts.URL+"/deploy", DeployRequest{CQL: testStmt, Sink: 7, Tenant: "t0"})
	if code != http.StatusOK {
		t.Fatalf("deploy: %d %s", code, body)
	}
	var dr DeployResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.ID == 0 || dr.Plan == "" || dr.Cost <= 0 || dr.PlanLatencyNs <= 0 {
		t.Fatalf("implausible deploy response: %+v", dr)
	}
	if dr.Shard != s.ShardFor("t0", testStmt) {
		t.Fatalf("deployed on shard %d, routing says %d", dr.Shard, s.ShardFor("t0", testStmt))
	}

	// The same statement from the same tenant routes to the same shard and
	// meets its own advertisements.
	code, body = postJSON(t, ts.URL+"/deploy", DeployRequest{CQL: testStmt, Sink: 9, Tenant: "t0"})
	if code != http.StatusOK {
		t.Fatalf("re-deploy: %d %s", code, body)
	}
	var dr2 DeployResponse
	if err := json.Unmarshal(body, &dr2); err != nil {
		t.Fatal(err)
	}
	if dr2.Shard != dr.Shard {
		t.Fatalf("identical statement routed to shard %d then %d", dr.Shard, dr2.Shard)
	}

	code, body = get(t, fmt.Sprintf("%s/explain?id=%d", ts.URL, dr.ID))
	if code != http.StatusOK || !strings.Contains(string(body), "level ") {
		t.Fatalf("explain: %d %.200s", code, body)
	}

	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serving.deploys"] != 2 {
		t.Fatalf("serving.deploys = %d, want 2", snap.Counters["serving.deploys"])
	}

	if code, _ = get(t, ts.URL+"/snapshot"); code != http.StatusOK {
		t.Fatalf("snapshot: %d", code)
	}
	if code, _ = get(t, fmt.Sprintf("%s/snapshot?shard=%d", ts.URL, dr.Shard)); code != http.StatusOK {
		t.Fatalf("snapshot?shard: %d", code)
	}
	code, body = get(t, fmt.Sprintf("%s/flight?shard=%d", ts.URL, dr.Shard))
	if code != http.StatusOK || !strings.Contains(string(body), "plan_chosen") {
		t.Fatalf("flight: %d %.200s", code, body)
	}

	for _, id := range []int64{dr.ID, dr2.ID} {
		code, body = postJSON(t, fmt.Sprintf("%s/undeploy?id=%d", ts.URL, id), nil)
		if code != http.StatusOK {
			t.Fatalf("undeploy %d: %d %s", id, code, body)
		}
	}
	// Retracting both deployments must drain the shard's load ledger.
	sys := s.Shard(dr.Shard)
	for v := 0; v < testConfig().Nodes; v++ {
		if l := sys.NodeLoad(hnp.NodeID(v)); l > 1e-9 {
			t.Fatalf("node %d still carries load %g after undeploy", v, l)
		}
	}
	if st := s.Stats(); st.Outstanding != 0 || st.Undeploys != 2 {
		t.Fatalf("stats after teardown: %+v", st)
	}

	// The handle is gone: explain and a second undeploy both 404.
	if code, _ = get(t, fmt.Sprintf("%s/explain?id=%d", ts.URL, dr.ID)); code != http.StatusNotFound {
		t.Fatalf("explain after undeploy: %d, want 404", code)
	}
	if code, _ = postJSON(t, fmt.Sprintf("%s/undeploy?id=%d", ts.URL, dr.ID), nil); code != http.StatusNotFound {
		t.Fatalf("double undeploy: %d, want 404", code)
	}
}

// TestServeUndeployBody exercises the JSON-body form of undeploy.
func TestServeUndeployBody(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	code, body := postJSON(t, ts.URL+"/deploy", DeployRequest{CQL: testStmt})
	if code != http.StatusOK {
		t.Fatalf("deploy: %d %s", code, body)
	}
	var dr DeployResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if code, body = postJSON(t, ts.URL+"/undeploy", UndeployRequest{ID: dr.ID}); code != http.StatusOK {
		t.Fatalf("undeploy by body: %d %s", code, body)
	}
}

// TestServeContradictionFolds: a provably-empty WHERE is a successful
// deployment of nothing — 200, the empty plan at cost 0, the shard's
// registry and load ledger untouched, and an undeploy that retracts no
// advertisement.
func TestServeContradictionFolds(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	s, ts := newTestServer(t, cfg)
	if code, body := postJSON(t, ts.URL+"/deploy", DeployRequest{CQL: testStmt, Sink: 7}); code != http.StatusOK {
		t.Fatalf("deploy: %d %s", code, body)
	}
	sys := s.Shard(0)
	ledger := func() []float64 {
		out := make([]float64, cfg.Nodes)
		for v := range out {
			out[v] = sys.NodeLoad(hnp.NodeID(v))
		}
		return out
	}
	adsBefore, loadBefore := sys.Registry.Len(), ledger()
	if adsBefore == 0 {
		t.Fatal("vacuous: the standing deployment advertised nothing")
	}

	code, body := postJSON(t, ts.URL+"/deploy", DeployRequest{
		CQL: "SELECT * FROM stream-1 WHERE stream-1.temp < 0.2 AND stream-1.temp > 0.7", Sink: 7,
	})
	if code != http.StatusOK {
		t.Fatalf("contradiction: %d %s, want 200", code, body)
	}
	var dr DeployResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Plan != "(empty: no plan)" || dr.Cost != 0 {
		t.Fatalf("contradiction planned %q at cost %g, want the empty plan at 0", dr.Plan, dr.Cost)
	}
	if got := sys.Registry.Len(); got != adsBefore {
		t.Errorf("registry holds %d advertisements, %d before the no-op", got, adsBefore)
	}
	for v, l := range ledger() {
		if l != loadBefore[v] {
			t.Errorf("node %d load %g, %g before the no-op", v, l, loadBefore[v])
		}
	}

	code, body = postJSON(t, fmt.Sprintf("%s/undeploy?id=%d", ts.URL, dr.ID), nil)
	if code != http.StatusOK {
		t.Fatalf("undeploy: %d %s", code, body)
	}
	var ur struct {
		Retracted *int `json:"ads_retracted"`
	}
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Retracted == nil || *ur.Retracted != 0 {
		t.Errorf("undeploy of the no-op answered %s, want ads_retracted 0", body)
	}
	if got := sys.Registry.Len(); got != adsBefore {
		t.Errorf("registry holds %d advertisements after the undeploy, want %d", got, adsBefore)
	}
}

// TestServeErrorPaths covers the wire-level failure modes: malformed
// CQL, catalog misses, broken JSON, non-UTF-8 statements, oversized
// bodies, bad parameters and unknown shards.
func TestServeErrorPaths(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	cases := []struct {
		name string
		do   func() (int, []byte)
		want int
	}{
		{"malformed cql", func() (int, []byte) {
			return postJSON(t, ts.URL+"/deploy", DeployRequest{CQL: "SELECT FROM WHERE"})
		}, http.StatusBadRequest},
		{"unknown stream", func() (int, []byte) {
			return postJSON(t, ts.URL+"/deploy", DeployRequest{CQL: "SELECT * FROM nosuch, stream-1"})
		}, http.StatusBadRequest},
		{"broken json", func() (int, []byte) {
			return postJSON(t, ts.URL+"/deploy", []byte(`{"cql": "SELECT`))
		}, http.StatusBadRequest},
		{"empty statement", func() (int, []byte) {
			return postJSON(t, ts.URL+"/deploy", DeployRequest{})
		}, http.StatusBadRequest},
		// Refused as a decode error before JSON could mangle the bytes
		// into U+FFFD and hand the parser a statement to reject.
		{"non-utf8 statement", func() (int, []byte) {
			decodeErrs, parseErrs := s.Obs.Counter("serving.decode_errors"), s.Obs.Counter("serving.parse_errors")
			d0, p0 := decodeErrs.Value(), parseErrs.Value()
			code, body := postJSON(t, ts.URL+"/deploy", []byte("{\"cql\": \"SELECT \\ufffd\xff * FROM\"}"))
			if d, p := decodeErrs.Value()-d0, parseErrs.Value()-p0; d != 1 || p != 0 {
				t.Errorf("non-utf8 statement moved decode_errors by %d and parse_errors by %d, want 1 and 0", d, p)
			}
			return code, body
		}, http.StatusBadRequest},
		{"non-utf8 tenant", func() (int, []byte) {
			return postJSON(t, ts.URL+"/deploy", []byte("{\"cql\": \""+testStmt+"\", \"tenant\": \"t\xff\"}"))
		}, http.StatusBadRequest},
		{"oversized body", func() (int, []byte) {
			huge := `{"cql": "SELECT * FROM ` + strings.Repeat("x", int(testConfig().MaxBody)) + `"}`
			return postJSON(t, ts.URL+"/deploy", []byte(huge))
		}, http.StatusRequestEntityTooLarge},
		{"bad sink", func() (int, []byte) {
			return postJSON(t, ts.URL+"/deploy", DeployRequest{CQL: testStmt, Sink: 4096})
		}, http.StatusBadRequest},
		{"bad algo", func() (int, []byte) {
			return postJSON(t, ts.URL+"/deploy", DeployRequest{CQL: testStmt, Algo: "quantum"})
		}, http.StatusBadRequest},
		{"get deploy", func() (int, []byte) { return get(t, ts.URL+"/deploy") }, http.StatusMethodNotAllowed},
		{"explain without id", func() (int, []byte) { return get(t, ts.URL+"/explain") }, http.StatusBadRequest},
		{"undeploy bad id", func() (int, []byte) {
			return postJSON(t, ts.URL+"/undeploy?id=banana", nil)
		}, http.StatusBadRequest},
		{"unknown shard snapshot", func() (int, []byte) { return get(t, ts.URL+"/snapshot?shard=99") }, http.StatusBadRequest},
		{"unknown shard flight", func() (int, []byte) { return get(t, ts.URL+"/flight?shard=-1") }, http.StatusBadRequest},
		{"non-numeric shard", func() (int, []byte) { return get(t, ts.URL+"/snapshot?shard=zero") }, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, body := tc.do()
		if code != tc.want {
			t.Errorf("%s: got %d (%.200s), want %d", tc.name, code, body, tc.want)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %.200q is not an ErrorResponse", tc.name, body)
		}
	}
	if st := s.Stats(); st.Deploys != 0 || st.Outstanding != 0 {
		t.Fatalf("error paths leaked deployments: %+v", st)
	}
}

// TestServeRaceHammer runs concurrent clients through the full lifecycle
// against one server — the suite CI runs under -race. Every client mixes
// deploys, explains, undeploys and read-only surfaces; the statements are
// a synthesized trace's (tenants, WHERE, WINDOW … AGGREGATE).
func TestServeRaceHammer(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	tr, err := workload.SynthesizeTrace(workload.DefaultTrace(7), streamNames(s), testConfig().Nodes)
	if err != nil {
		t.Fatal(err)
	}
	var deploys []workload.TraceEvent
	for _, ev := range tr.Events {
		if ev.Kind == workload.KindDeploy {
			deploys = append(deploys, ev)
		}
	}
	const clients = 8
	const iters = 20
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var ids []int64
			for i := 0; i < iters; i++ {
				ev := deploys[(c*iters+i)%len(deploys)]
				code, body := postJSON(t, ts.URL+"/deploy", DeployRequest{CQL: ev.CQL, Sink: ev.Sink, Tenant: ev.Tenant})
				if code != http.StatusOK {
					t.Errorf("client %d deploy: %d %.200s", c, code, body)
					return
				}
				var dr DeployResponse
				if err := json.Unmarshal(body, &dr); err != nil {
					t.Error(err)
					return
				}
				ids = append(ids, dr.ID)
				switch i % 4 {
				case 0:
					get(t, fmt.Sprintf("%s/explain?id=%d", ts.URL, dr.ID))
				case 1:
					get(t, ts.URL+"/metrics")
				case 2:
					get(t, ts.URL+"/snapshot")
				}
				if len(ids) > 3 {
					id := ids[0]
					ids = ids[1:]
					if code, body := postJSON(t, fmt.Sprintf("%s/undeploy?id=%d", ts.URL, id), nil); code != http.StatusOK {
						t.Errorf("client %d undeploy: %d %.200s", c, code, body)
						return
					}
				}
			}
			for _, id := range ids {
				postJSON(t, fmt.Sprintf("%s/undeploy?id=%d", ts.URL, id), nil)
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats()
	if st.Deploys != clients*iters {
		t.Fatalf("deploys = %d, want %d", st.Deploys, clients*iters)
	}
	if st.Outstanding != 0 || st.Deploys != st.Undeploys {
		t.Fatalf("lifecycle accounting off after hammer: %+v", st)
	}
}

// TestServeShardRouting pins routing invariants: stable, in range, and
// actually spreading distinct statements across shards.
func TestServeShardRouting(t *testing.T) {
	s, _ := newTestServer(t, testConfig())
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		stmt := fmt.Sprintf("SELECT * FROM stream-%d, stream-%d", i%12, (i+1)%12)
		a := s.ShardFor("t", stmt)
		if a != s.ShardFor("t", stmt) {
			t.Fatal("routing is not stable")
		}
		if a < 0 || a >= len(s.shards) {
			t.Fatalf("shard %d out of range", a)
		}
		seen[a] = true
	}
	if len(seen) < 2 {
		t.Fatalf("64 distinct statements all landed on one shard")
	}
}

// TestQueryParamMatchesValues holds queryParam to url.ParseQuery followed
// by Values.Get on every shape of raw query the parser treats specially.
func TestQueryParamMatchesValues(t *testing.T) {
	for _, raw := range []string{
		"", "id=5", "id=", "id", "x=1&id=5", "id=5&id=6", "&&id=7&", "i%64=8", "id=%39",
		"id=%zz&id=9", "i%zz=1&id=10", ";id=11", "id=12;x", "x=1;&id=13", "id=a+b%20c", "ID=14", "idx=15&id=16",
	} {
		values, _ := url.ParseQuery(raw)
		if got, want := queryParam(raw, "id"), values.Get("id"); got != want {
			t.Errorf("queryParam(%q) = %q, url.Values gives %q", raw, got, want)
		}
	}
}

// TestUndeployResponseBytes pins /undeploy's body to the bytes the map
// it replaced encoded to.
func TestUndeployResponseBytes(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	code, body := postJSON(t, ts.URL+"/deploy", DeployRequest{CQL: testStmt, Sink: 7})
	var dr DeployResponse
	if err := json.Unmarshal(body, &dr); code != http.StatusOK || err != nil {
		t.Fatalf("deploy: %d %s", code, body)
	}
	code, body = postJSON(t, fmt.Sprintf("%s/undeploy?id=%d", ts.URL, dr.ID), nil)
	retracted := s.Shard(dr.Shard).Obs.Counter("ads.pruned").Value()
	var want bytes.Buffer
	json.NewEncoder(&want).Encode(map[string]any{"id": dr.ID, "shard": dr.Shard, "ads_retracted": int(retracted)})
	if lit := fmt.Sprintf(`{"ads_retracted":%d,"id":%d,"shard":%d}`+"\n", retracted, dr.ID, dr.Shard); code != http.StatusOK ||
		string(body) != want.String() || string(body) != lit || retracted == 0 {
		t.Fatalf("undeploy: %d %q, want %q (%d ads retracted)", code, body, want.String(), retracted)
	}
}

// TestChurnedDepsMatchFresh: 10,000 deploy/undeploy round trips around
// three standing deployments rebuild the handle map along the way and
// leave a server whose handles and outstanding count are a fresh
// server's after the same standing deployments, and whose retired
// handles are gone.
func TestChurnedDepsMatchFresh(t *testing.T) {
	churned, _ := newTestServer(t, testConfig())
	fresh, _ := newTestServer(t, testConfig())
	call := func(s *Server, method, target string, body any) []byte {
		t.Helper()
		b, _ := json.Marshal(body)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(method, target, bytes.NewReader(b)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, target, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	standing := []DeployRequest{
		{CQL: testStmt, Sink: 7, Tenant: "t0"},
		{CQL: "SELECT * FROM stream-2, stream-5", Sink: 3, Tenant: "t1"},
		{CQL: testStmt, Sink: 9, Tenant: "t2"},
	}
	for _, s := range []*Server{churned, fresh} {
		for _, req := range standing {
			call(s, http.MethodPost, "/deploy", req)
		}
	}
	first := reflect.ValueOf(churned.deps).UnsafePointer()
	for i := 0; i < 10_000; i++ {
		var dr DeployResponse
		req := DeployRequest{CQL: testStmt, Sink: i % 48, Tenant: fmt.Sprint("c", i%5)}
		if err := json.Unmarshal(call(churned, http.MethodPost, "/deploy", req), &dr); err != nil {
			t.Fatal(err)
		}
		call(churned, http.MethodPost, fmt.Sprintf("/undeploy?id=%d", dr.ID), nil)
	}
	if reflect.ValueOf(churned.deps).UnsafePointer() == first {
		t.Fatal("vacuous: the handle map was never rebuilt")
	}
	if got, want := churned.Stats().Outstanding, fresh.Stats().Outstanding; got != want || len(churned.deps) != len(fresh.deps) {
		t.Fatalf("churned server holds %d handles, fresh %d", got, want)
	}
	for id, want := range fresh.deps {
		got := churned.deps[id]
		if got == nil || got.shard != want.shard || got.tenant != want.tenant || got.cql != want.cql ||
			got.dep.Query.ID != want.dep.Query.ID || got.dep.Plan.String() != want.dep.Plan.String() || got.dep.Cost != want.dep.Cost {
			t.Fatalf("handle %d: churned %+v, fresh %+v", id, got, want)
		}
	}
	w := httptest.NewRecorder()
	churned.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/undeploy?id=4", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("a retired handle undeployed again: %d", w.Code)
	}
}

// streamNames returns the server's stream names in StreamID order, the
// names synthesized traces reference.
func streamNames(s *Server) []string {
	cat := s.Shard(0).Catalog
	names := make([]string, cat.NumStreams())
	for i := range names {
		names[i] = cat.Stream(query.StreamID(i)).Name
	}
	return names
}
