// Package serve is the query-serving front end: a long-running HTTP
// server (cmd/smqd) that accepts CQL statements over the wire, plans and
// deploys them against sharded hnp.System instances, and exposes the
// lifecycle (deploy/undeploy/explain) plus the debug surfaces (/metrics,
// /snapshot, /flight) as endpoints.
//
// Sharding partitions the queries, not the network: the server builds one
// graph, one path snapshot and one catalog, and N hnp.Systems over them
// that each own a hierarchy, an advertisement registry, a load ledger and
// telemetry. Every statement goes to the shard picked by a stable hash of
// (tenant, statement). Within a shard the existing per-System concurrency
// contract applies — any number of planners run under the shard's read
// lock — and across shards deployments never contend at all. Identical
// statements from one tenant always land on one shard, so the
// advertisement registry sees every reuse opportunity the hash preserves.
//
// Admission control: each shard bounds its in-flight plans with a
// semaphore. A request arriving at a full shard is rejected immediately
// with 429 and a Retry-After header rather than queued — overload sheds
// load at the door instead of growing latency without bound, and every
// rejection is counted in "serving.rejected" so overload is measurable.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"hnp"
	"hnp/internal/engine"
	"hnp/internal/obs"
	"hnp/internal/workload"
)

// Config parameterizes a server.
type Config struct {
	// Shards is the number of hnp.System instances statements are routed
	// across.
	Shards int
	// Nodes/MaxCS/Seed shape the server's network and each shard's
	// hierarchy over it (identical on every shard: one seed).
	Nodes, MaxCS int
	Seed         int64
	// Streams is the size of the synthesized stream catalog, drawn via
	// workload.CatalogSpec from the seed.
	Streams int
	// MaxInFlight bounds concurrently planning deployments per shard;
	// requests beyond it are rejected with 429 (admission control).
	MaxInFlight int
	// MaxBody bounds request bodies in bytes; larger requests get 413.
	MaxBody int64
	// DefaultAlgo plans statements that don't name an algorithm.
	DefaultAlgo hnp.Algorithm
	// FlightRecorder arms each shard's causal flight recorder (served at
	// /flight?shard=N).
	FlightRecorder bool
}

// DefaultConfig returns the standard serving shape: 4 shards over the
// paper's 128-node/max_cs=32 setting, a 24-stream catalog, 32 in-flight
// plans per shard, 64 KiB bodies, Top-Down planning, recorder armed.
func DefaultConfig() Config {
	return Config{
		Shards: 4, Nodes: 128, MaxCS: 32, Seed: 1,
		Streams: 24, MaxInFlight: 32, MaxBody: 64 << 10,
		DefaultAlgo:    hnp.AlgoTopDown,
		FlightRecorder: true,
	}
}

// DeployRequest is the wire form of a deploy call.
type DeployRequest struct {
	// CQL is the statement to plan and deploy (see internal/cql).
	CQL string `json:"cql"`
	// Sink is the delivery node (default node 0).
	Sink int `json:"sink"`
	// Algo names the planner: "top-down", "bottom-up", "optimal",
	// "plan-then-deploy"; empty selects the server default.
	Algo string `json:"algo,omitempty"`
	// Tenant multiplexes request streams; it participates in shard
	// routing, so one tenant's identical statements share a shard.
	Tenant string `json:"tenant,omitempty"`
}

// DeployResponse is the wire form of a successful deploy.
type DeployResponse struct {
	// ID is the server-wide deployment handle for undeploy/explain.
	ID int64 `json:"id"`
	// Shard is the shard the statement was routed to.
	Shard int `json:"shard"`
	// QueryID is the query's ID inside its shard's System.
	QueryID int `json:"query_id"`
	// Plan is the chosen operator tree, Cost its marginal communication
	// cost per unit time.
	Plan string  `json:"plan"`
	Cost float64 `json:"cost"`
	// PlanLatencyNs is the server-side parse+plan+deploy time.
	PlanLatencyNs int64 `json:"plan_latency_ns"`
	// ReusedLeaves counts plan inputs satisfied by previously advertised
	// derived streams.
	ReusedLeaves int `json:"reused_leaves"`
	// PlansConsidered is the planner's search-space accounting.
	PlansConsidered float64 `json:"plans_considered"`
}

// UndeployResponse is the wire form of a successful undeploy: the
// advertisements it retracted, the retired handle and the shard that held
// it, in name order, as a map of them would encode.
type UndeployResponse struct {
	AdsRetracted int   `json:"ads_retracted"`
	ID           int64 `json:"id"`
	Shard        int   `json:"shard"`
}

// ErrorResponse is the wire form of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Stats is a point-in-time copy of the server's request accounting.
type Stats struct {
	Deploys, Undeploys, Rejected int64
	ParseErrors, DecodeErrors    int64
	Oversized                    int64
	Outstanding                  int
}

type shard struct {
	sys *hnp.System
	sem chan struct{}
}

type record struct {
	shard  int
	tenant string
	cql    string
	dep    hnp.Deployment
	planNs int64
}

// Server is the query-serving front end; it implements http.Handler.
type Server struct {
	cfg    Config
	shards []*shard

	// Obs is the server's own registry: the serving.* metric family
	// (deploys, rejections, plan-latency histogram). Per-shard planner
	// telemetry lives in each shard System's registry (/snapshot).
	Obs *obs.Registry

	mux    *http.ServeMux
	nextID atomic.Int64
	mu     sync.RWMutex
	deps   map[int64]*record
	undone int // deps deleted since deps was last rebuilt

	// planHook, when set (tests only), runs while the admission slot is
	// held, before planning: it lets tests saturate a shard
	// deterministically.
	planHook func()

	cDeploys, cUndeploys, cRejected *obs.Counter
	cParseErr, cDecodeErr, cOversz  *obs.Counter
	gInFlight                       *obs.Gauge
	hPlanSec                        *obs.Histogram
}

// NewServer builds the sharded systems and the HTTP surface. Serving is
// pointless without its measurements, so telemetry is switched on
// process-wide.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Shards < 1 || cfg.MaxInFlight < 1 {
		return nil, fmt.Errorf("serve: need at least one shard and one in-flight slot")
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultConfig().MaxBody
	}
	hnp.EnableTelemetry()
	s := &Server{
		cfg:  cfg,
		Obs:  obs.NewRegistry(),
		deps: map[int64]*record{},
	}
	// One network per server: the first shard builds the graph, the path
	// snapshot and the catalog, every other shard only a hierarchy of its
	// own over them.
	first, err := hnp.NewSystem(hnp.TransitStubNetwork(cfg.Nodes, cfg.Seed), cfg.MaxCS, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	specs, sels, err := workload.CatalogSpec(workload.Default(cfg.Streams, 0), cfg.Nodes, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	ids := make([]hnp.StreamID, len(specs))
	for j, sp := range specs {
		ids[j] = first.AddStream(sp.Name, sp.Rate, sp.Source)
	}
	for _, sel := range sels {
		first.SetSelectivity(ids[sel.I], ids[sel.J], sel.Sel)
	}
	for i := 0; i < cfg.Shards; i++ {
		sys := first
		if i > 0 {
			if sys, err = engine.Build(first.Graph, first.Hierarchy.Paths(), first.Catalog, cfg.MaxCS, cfg.Seed); err != nil {
				return nil, fmt.Errorf("serve: shard %d: %w", i, err)
			}
		}
		if cfg.FlightRecorder {
			sys.Obs.Tracer().Enable()
		}
		s.shards = append(s.shards, &shard{sys: sys, sem: make(chan struct{}, cfg.MaxInFlight)})
	}

	s.cDeploys = s.Obs.Counter("serving.deploys")
	s.cUndeploys = s.Obs.Counter("serving.undeploys")
	s.cRejected = s.Obs.Counter("serving.rejected")
	s.cParseErr = s.Obs.Counter("serving.parse_errors")
	s.cDecodeErr = s.Obs.Counter("serving.decode_errors")
	s.cOversz = s.Obs.Counter("serving.oversized")
	s.gInFlight = s.Obs.Gauge("serving.inflight")
	s.hPlanSec = s.Obs.Histogram("serving.plan_seconds", nil)

	mux := http.NewServeMux()
	mux.HandleFunc("/deploy", s.handleDeploy)
	mux.HandleFunc("/undeploy", s.handleUndeploy)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/metrics", obs.MetricsHandler(s.Obs.Snapshot))
	mux.HandleFunc("/flight", s.handleFlight)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux = mux
	return s, nil
}

// ServeHTTP dispatches to the server's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shard exposes one shard's System (debug surfaces, tests).
func (s *Server) Shard(i int) *hnp.System { return s.shards[i].sys }

// Stats copies the request accounting.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	outstanding := len(s.deps)
	s.mu.RUnlock()
	return Stats{
		Deploys:      s.cDeploys.Value(),
		Undeploys:    s.cUndeploys.Value(),
		Rejected:     s.cRejected.Value(),
		ParseErrors:  s.cParseErr.Value(),
		DecodeErrors: s.cDecodeErr.Value(),
		Oversized:    s.cOversz.Value(),
		Outstanding:  outstanding,
	}
}

// ShardFor returns the shard a (tenant, statement) pair routes to: a
// stable FNV-1a hash, so identical statements always meet their earlier
// advertisements.
func (s *Server) ShardFor(tenant, cql string) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(tenant); i++ {
		h = (h ^ uint32(tenant[i])) * prime32
	}
	h *= prime32 // a zero byte between the two
	for i := 0; i < len(cql); i++ {
		h = (h ^ uint32(cql[i])) * prime32
	}
	return int(h % uint32(len(s.shards)))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeBody reads and JSON-decodes a bounded request body into v,
// classifying failures: 413 for oversized bodies, 400 otherwise.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.cOversz.Inc()
			writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.cfg.MaxBody)
		} else {
			s.cDecodeErr.Inc()
			writeErr(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		s.cDecodeErr.Inc()
		writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

func (s *Server) handleDeploy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req DeployRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.CQL == "" {
		s.cDecodeErr.Inc()
		writeErr(w, http.StatusBadRequest, "empty cql statement")
		return
	}
	if !utf8.ValidString(req.CQL) {
		s.cDecodeErr.Inc()
		writeErr(w, http.StatusBadRequest, "cql statement is not valid UTF-8")
		return
	}
	if req.Sink < 0 || req.Sink >= s.cfg.Nodes {
		s.cDecodeErr.Inc()
		writeErr(w, http.StatusBadRequest, "sink %d outside [0,%d)", req.Sink, s.cfg.Nodes)
		return
	}
	algo := s.cfg.DefaultAlgo
	if req.Algo != "" {
		var ok bool
		if algo, ok = hnp.ParseAlgorithm(req.Algo); !ok {
			s.cDecodeErr.Inc()
			writeErr(w, http.StatusBadRequest, "unknown algorithm %q", req.Algo)
			return
		}
	}

	si := s.ShardFor(req.Tenant, req.CQL)
	sh := s.shards[si]
	// Admission control: claim an in-flight slot or shed the request now.
	select {
	case sh.sem <- struct{}{}:
	default:
		s.cRejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "shard %d at max in-flight plans (%d)", si, s.cfg.MaxInFlight)
		return
	}
	defer func() { <-sh.sem }()
	s.gInFlight.Add(1)
	defer s.gInFlight.Add(-1)
	if s.planHook != nil {
		s.planHook()
	}

	start := time.Now()
	dep, err := sh.sys.PlanCQL(req.CQL, hnp.NodeID(req.Sink), algo)
	if err == nil {
		err = sh.sys.Deploy(dep)
	}
	lat := time.Since(start)
	if err != nil {
		s.cParseErr.Inc()
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.hPlanSec.Observe(lat.Seconds())
	s.cDeploys.Inc()

	id := s.nextID.Add(1)
	s.mu.Lock()
	s.deps[id] = &record{shard: si, tenant: req.Tenant, cql: req.CQL, dep: dep, planNs: lat.Nanoseconds()}
	s.mu.Unlock()

	writeJSON(w, http.StatusOK, DeployResponse{
		ID: id, Shard: si, QueryID: dep.Query.ID,
		Plan: dep.Plan.String(), Cost: dep.Cost,
		PlanLatencyNs:   lat.Nanoseconds(),
		ReusedLeaves:    dep.Plan.DerivedLeaves(),
		PlansConsidered: dep.PlansConsidered,
	})
}

// UndeployRequest is the wire form of an undeploy call (the id may also
// be passed as ?id=N).
type UndeployRequest struct {
	ID int64 `json:"id"`
}

func (s *Server) handleUndeploy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var id int64
	if q := queryParam(r.URL.RawQuery, "id"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			s.cDecodeErr.Inc()
			writeErr(w, http.StatusBadRequest, "id must be an integer")
			return
		}
		id = n
	} else {
		var req UndeployRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		id = req.ID
	}
	s.mu.Lock()
	rec, ok := s.deps[id]
	if ok {
		delete(s.deps, id)
		if s.undone++; s.undone > 2*len(s.deps) { // as ads.Registry's buckets
			s.deps, s.undone = maps.Clone(s.deps), 0
		}
	}
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown deployment id %d", id)
		return
	}
	retracted, err := s.shards[rec.shard].sys.Undeploy(rec.dep)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.cUndeploys.Inc()
	writeJSON(w, http.StatusOK, UndeployResponse{AdsRetracted: retracted, ID: id, Shard: rec.shard})
}

// queryParam returns the first value of key in a raw query string, as
// url.ParseQuery and Values.Get would, without building the Values map:
// a pair whose key holds a ';' or whose key or value does not unescape
// is skipped.
func queryParam(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err == nil && k == key && !strings.Contains(pair, ";") {
			if v, err := url.QueryUnescape(v); err == nil {
				return v
			}
		}
	}
	return ""
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(queryParam(r.URL.RawQuery, "id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "explain needs ?id=N")
		return
	}
	s.mu.RLock()
	rec, ok := s.deps[id]
	s.mu.RUnlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown deployment id %d", id)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "deployment %d (shard %d, tenant %q)\ncql:  %s\nplan: %s\ncost: %.6g\nplan latency: %s\n\n",
		id, rec.shard, rec.tenant, rec.cql, rec.dep.Plan, rec.dep.Cost,
		time.Duration(rec.planNs))
	rec.dep.ExplainTo(w)
}

// shardParam resolves an optional ?shard=N parameter; ok=false means the
// response was already written.
func (s *Server) shardParam(w http.ResponseWriter, r *http.Request, def int) (int, bool) {
	q := queryParam(r.URL.RawQuery, "shard")
	if q == "" {
		return def, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 || n >= len(s.shards) {
		writeErr(w, http.StatusBadRequest, "unknown shard %q (have %d)", q, len(s.shards))
		return 0, false
	}
	return n, true
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	switch si, ok := s.shardParam(w, r, -1); {
	case !ok:
		return
	case si >= 0:
		writeJSON(w, http.StatusOK, s.shards[si].sys.Snapshot())
		return
	}
	shardSnaps := make([]obs.Snapshot, len(s.shards))
	for i, sh := range s.shards {
		shardSnaps[i] = sh.sys.Snapshot()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"serving": s.Obs.Snapshot(),
		"shards":  shardSnaps,
	})
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	si, ok := s.shardParam(w, r, 0)
	if !ok {
		return
	}
	obs.FlightHandler(func() *obs.Tracer { return s.shards[si].sys.Obs.Tracer() })(w, r)
}
