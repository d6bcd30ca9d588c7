package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"hnp"
	"hnp/internal/serve"
	"hnp/internal/stats"
)

// handle is one outstanding deployment: the server's id and, on a traced
// pass, what the twin needs to retract its copy.
type handle struct {
	id   int64
	twin twinDeployment
}

// servingRound is the timings of one round of deploy+undeploy pairs.
type servingRound struct {
	wall                               time.Duration
	pairUs, deployUs, undeployUs, plan []float64
}

// servingRun drives one serving workload: a closed loop of one client on
// one keep-alive loopback connection against an in-process smqd, holding
// the outstanding set at W.
type servingRun struct {
	spec      servingSpec
	cfg       serve.Config
	seq       *sequence
	roundSize int

	srv                    *serve.Server
	ts                     *httptest.Server
	client                 *http.Client
	deployURL, undeployURL string

	fifo []handle // outstanding handles, oldest first
	pos  int      // deploys issued since set-up; indexes seq.reqs modulo its length

	// rec and twin are set on a traced pass only.
	rec   *recorder
	twin  *twin
	reqID int

	setupS []float64
	rounds []servingRound

	tally
	deploys, reuseDeploys int
	costSum               float64
	plansConsidered       float64
	reqBytes, respBytes   int64
	proc                  procStats
	measuredWall          time.Duration
	// end is the server's own accounting, copied when the run ends.
	end serve.Stats
}

// newServingRun prepares a run over seq in rounds of roundSize pairs. With
// a recorder the run is a traced pass: every request is wrapped in spans
// and replayed on a twin.
func newServingRun(spec servingSpec, seq *sequence, roundSize int, rec *recorder) *servingRun {
	return &servingRun{spec: spec, cfg: serve.DefaultConfig(), seq: seq, roundSize: roundSize, rec: rec}
}

func (r *servingRun) name() string { return r.spec.name }

func (r *servingRun) setups() int { return r.spec.setups }

// setup builds the server and preloads it to W outstanding deployments.
// Its wall time is one set-up sample. Once the run has its server, a
// further call times a throwaway copy built from the same input.
func (r *servingRun) setup() error {
	if r.ts != nil {
		tmp := newServingRun(r.spec, r.seq, r.roundSize, nil)
		err := tmp.setup()
		tmp.teardown()
		r.setupS = append(r.setupS, tmp.setupS...)
		r.tally.add(tmp.tally)
		return err
	}
	// Start every sample from a collected heap: a set-up is 30 ms on hot
	// and allocates enough for one or two collections, and whether the
	// previous sample's garbage tipped one more into this sample moved the
	// figure by 40 %.
	runtime.GC()
	t0 := time.Now()
	srv, err := serve.NewServer(r.cfg)
	if err != nil {
		return err
	}
	r.srv = srv
	r.ts = httptest.NewServer(srv)
	// One connection, kept alive: client goroutine + server goroutine are
	// the two cores this class of machine has.
	r.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
	}}
	r.deployURL = r.ts.URL + "/deploy"
	r.undeployURL = r.ts.URL + "/undeploy?id="
	if r.rec != nil {
		if r.twin, err = newTwin(r.cfg, srv); err != nil {
			return err
		}
	}
	for r.pos < r.seq.w {
		r.pair(nil)
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	return nil
}

// teardown stops the server and drops every reference to it, so the heap
// it held can be measured as the difference around this call.
func (r *servingRun) teardown() {
	if r.ts == nil {
		return
	}
	r.client.CloseIdleConnections()
	r.ts.Close()
	r.srv, r.ts, r.client, r.twin = nil, nil, nil, nil
	r.fifo = nil
}

// post sends one request and returns the status, the body and the client
// round trip (request written to response body read).
func (r *servingRun) post(url string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	t0 := time.Now()
	resp, err := r.client.Post(url, "application/json", rd)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, time.Since(t0), err
}

// pair issues the next deploy and, once more than W deployments are
// outstanding, undeploys the oldest. With out set the timings are
// recorded; preloading passes nil.
func (r *servingRun) pair(out *servingRound) {
	req := r.seq.reqs[r.pos%len(r.seq.reqs)]
	r.pos++
	r.reqID++
	measured := out != nil
	// The twin replays every request, preload included; spans cover the
	// measured ones only.
	var rec *recorder
	if measured {
		rec = r.rec
	}

	root := rec.begin("request.deploy", r.reqID, -1)
	call := rec.begin("serve.deploy", r.reqID, root)
	code, body, rtt, err := r.post(r.deployURL, req.body)
	rec.end(call)
	var dr serve.DeployResponse
	ok := err == nil && code == http.StatusOK && json.Unmarshal(body, &dr) == nil && dr.Plan != ""
	if measured {
		r.attempted++
	}
	if !ok {
		r.fail("deploy #%d: status %d err %v body %.80s", r.pos, code, err, body)
	} else {
		h := handle{id: dr.ID}
		if r.twin != nil {
			var terr error
			if h.twin, terr = r.twin.deploy(rec, r.reqID, root, req, dr); terr != nil {
				r.fail("deploy #%d: %v", r.pos, terr)
			}
		}
		r.fifo = append(r.fifo, h)
		if measured {
			r.deploys++
			r.costSum += dr.Cost
			r.plansConsidered += dr.PlansConsidered
			if dr.ReusedLeaves > 0 {
				r.reuseDeploys++
			}
			r.reqBytes += int64(len(req.body))
			r.respBytes += int64(len(body))
			out.deployUs = append(out.deployUs, us(rtt))
			out.plan = append(out.plan, float64(dr.PlanLatencyNs)/1e3)
		}
	}
	rec.end(root)

	if len(r.fifo) <= r.seq.w {
		return
	}
	h := r.fifo[0]
	r.fifo = r.fifo[1:]
	r.reqID++
	root = rec.begin("request.undeploy", r.reqID, -1)
	call = rec.begin("serve.undeploy", r.reqID, root)
	code, body, urtt, err := r.post(r.undeployURL+strconv.FormatInt(h.id, 10), nil)
	rec.end(call)
	var ur struct {
		ID        int64 `json:"id"`
		Retracted int   `json:"ads_retracted"`
	}
	if measured {
		r.attempted++
	}
	if err != nil || code != http.StatusOK || json.Unmarshal(body, &ur) != nil || ur.ID != h.id {
		r.fail("undeploy %d: status %d err %v body %.80s", h.id, code, err, body)
	} else {
		if r.twin != nil {
			if terr := r.twin.undeploy(rec, r.reqID, root, h.twin, ur.Retracted); terr != nil {
				r.fail("undeploy %d: %v", h.id, terr)
			}
		}
		if measured {
			out.undeployUs = append(out.undeployUs, us(urtt))
			if ok {
				out.pairUs = append(out.pairUs, us(rtt+urtt))
			}
		}
	}
	rec.end(root)
}

// round serves roundSize measured pairs.
func (r *servingRun) round() {
	// smqd runs with telemetry on (NewServer switches it on); the switch is
	// process-global and adapt-rateshift's rounds switch it off.
	hnp.EnableTelemetry()
	var out servingRound
	r.proc.measure(func() {
		t0 := time.Now()
		for i := 0; i < r.roundSize; i++ {
			r.pair(&out)
		}
		out.wall = time.Since(t0)
	})
	r.measuredWall += out.wall
	r.rounds = append(r.rounds, out)
}

// measuredPairs is the number of pairs the rounds so far served.
func (r *servingRun) measuredPairs() int { return len(r.rounds) * r.roundSize }

// checkEnd applies the end-of-run gates; call it before teardown.
func (r *servingRun) checkEnd() {
	r.end = r.srv.Stats()
	if r.end.Outstanding != r.seq.w {
		r.fail("outstanding = %d at end of run, want W = %d", r.end.Outstanding, r.seq.w)
	}
	if r.end.Rejected != 0 {
		r.fail("server rejected %d requests (429)", r.end.Rejected)
	}
	if n := r.end.ParseErrors + r.end.DecodeErrors + r.end.Oversized; n != 0 {
		r.fail("server counted %d malformed requests", n)
	}
}

func (r *servingRun) result() tally { return r.tally }

func pairUs(rd servingRound) []float64     { return rd.pairUs }
func deployUs(rd servingRound) []float64   { return rd.deployUs }
func undeployUs(rd servingRound) []float64 { return rd.undeployUs }
func planUs(rd servingRound) []float64     { return rd.plan }

// pool concatenates one timing across rounds.
func pool(rounds []servingRound, pick func(servingRound) []float64) []float64 {
	var all []float64
	for _, rd := range rounds {
		all = append(all, pick(rd)...)
	}
	return all
}

// roundMedians is the per-round median of one timing. Every serving
// timing is reported as the median of these, so a noisy stretch of the
// machine is voted out rather than averaged in.
func roundMedians(rounds []servingRound, pick func(servingRound) []float64) []float64 {
	out := make([]float64, len(rounds))
	for i, rd := range rounds {
		out[i] = median(pick(rd))
	}
	return out
}

// endToEnd reports what a client of the daemon sees. One operation is one
// steady-state pair: deploy a statement, retire the oldest.
func (r *servingRun) endToEnd(m metrics, heapMB float64) {
	m.set("setup_s", "s", median(r.setupS), len(r.setupS))
	pairMed := roundMedians(r.rounds, pairUs)
	m.set("op_p50_us", "us", median(pairMed), len(pairMed))
	m.set("heap_live_mb", "MB", heapMB, 1)
}

// layers reports the serve layer as the client measures it with tracing
// off, the planner's own accounting from the responses, and the
// process-wide allocator figures over the measured window.
func (r *servingRun) layers(m metrics) {
	allDep, allUnd := pool(r.rounds, deployUs), pool(r.rounds, undeployUs)
	depMed := median(roundMedians(r.rounds, deployUs))
	plnMed := median(roundMedians(r.rounds, planUs))
	m.set("serve.deploy_us_p50", "us", depMed, len(allDep))
	m.set("serve.deploy_us_p90", "us", stats.Percentile(allDep, 90), len(allDep))
	m.set("serve.deploy_us_p99", "us", stats.Percentile(allDep, 99), len(allDep))
	m.set("serve.undeploy_us_p50", "us", median(roundMedians(r.rounds, undeployUs)), len(allUnd))
	m.set("serve.undeploy_us_p99", "us", stats.Percentile(allUnd, 99), len(allUnd))
	m.set("serve.plan_us_p50", "us", plnMed, len(allDep))
	m.set("serve.overhead_us_p50", "us", depMed-plnMed, len(allDep))
	m.set("serve.requests_per_s", "1/s", float64(r.attempted)/r.measuredWall.Seconds(), r.attempted)
	m.set("serve.rejected", "count", float64(r.end.Rejected), 1)
	m.set("serve.errors", "count", float64(r.failed), r.attempted)
	m.set("serve.outstanding", "count", float64(r.end.Outstanding), 1)
	m.set("serve.req_bytes_mean", "bytes", mean(float64(r.reqBytes), r.deploys), r.deploys)
	m.set("serve.resp_bytes_mean", "bytes", mean(float64(r.respBytes), r.deploys), r.deploys)
	m.set("core.plan_cost_mean", "cost", mean(r.costSum, r.deploys), r.deploys)
	m.set("core.plans_considered_mean", "count", mean(r.plansConsidered, r.deploys), r.deploys)
	m.set("ads.reuse_deploy_frac", "fraction", mean(float64(r.reuseDeploys), r.deploys), r.deploys)
	r.proc.report(m, float64(r.measuredPairs()))
}

// tracedLayers reports a traced pass: the twin's per-layer spans, how much
// of the server's own plan latency they account for, and what tracing
// cost against the untraced deploy round trip m already holds. Call it
// before teardown.
func (r *servingRun) tracedLayers(m metrics) {
	t := r.twin
	t.probeAllocs()
	d := r.rec.byName()
	p50 := func(metric, spanName string) {
		m.set(metric, "us", median(d[spanName]), len(d[spanName]))
	}
	p50("cql.parse_us_p50", "cql.parse")
	m.set("cql.parse_allocs", "count", t.parseAllocs, len(t.samples))
	p50("rewrite.apply_us_p50", "rewrite.apply")
	m.set("rewrite.apply_allocs", "count", t.rewriteAllocs, len(t.samples))
	m.set("rewrite.rules_per_stmt", "count", mean(float64(t.rules), t.n), t.n)
	p50("core.plan_us_p50", "core.plan")
	m.set("core.plan_allocs", "count", t.planAllocs, len(t.samples))
	m.set("core.levels_mean", "count", mean(float64(t.levels), t.n), t.n)
	p50("ads.advertise_us_p50", "ads.advertise")
	p50("ads.prune_us_p50", "ads.prune")
	m.set("ads.registry_len", "count", float64(t.registryLen()), 1)
	m.set("ads.reused_leaf_frac", "fraction", mean(float64(t.reusedLeaves), t.leaves), t.leaves)
	m.set("load.ledger_us_p50", "us", median(d["load.add"])+median(d["load.remove"]), len(d["load.add"]))

	// What DeployCQL does, layer by layer, against what the server says
	// DeployCQL took: the remainder is time no layer span explains.
	var layered float64
	for _, name := range []string{"cql.parse", "cql.query", "rewrite.apply", "core.plan", "ads.advertise", "load.add"} {
		layered += sum(d[name])
	}
	served := sum(pool(r.rounds, planUs))
	if served > 0 {
		m.set("serve.plan_unattributed_frac", "fraction", 1-layered/served, t.n)
	}
	m.set("serve.twin_mismatches", "count", float64(t.mismatches), r.attempted)
	if untraced := m["serve.deploy_us_p50"].Value; untraced > 0 {
		m.set("trace.overhead_frac", "fraction", median(d["serve.deploy"])/untraced-1, len(d["serve.deploy"]))
	}
	m.set("trace.spans", "count", float64(len(r.rec.spans)), 1)
}
