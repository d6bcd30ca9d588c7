package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// TraceConfig parameterizes one synthesized serving trace: a timestamped
// sequence of deploy/undeploy requests, the serving-layer counterpart of
// Config's one-shot query batches. Everything is drawn from one seed, so
// a trace is bit-identical across runs and machines — bench/ replays the
// same request sequence for a seed forever.
type TraceConfig struct {
	// Seed drives every random choice in the trace.
	Seed int64
	// Duration is the trace horizon in seconds of trace time; with Rate
	// it sets how many events the trace holds.
	Duration float64
	// Rate is the arrival rate in requests per second of trace time;
	// inter-arrival gaps are exponential (Poisson arrivals).
	Rate float64
	// Templates is the number of distinct query shapes in the mix; each
	// arrival instantiates one template.
	Templates int
	// MixSkew is the Zipf exponent of template popularity: 0 is a uniform
	// mix, larger values concentrate arrivals on few hot templates (hot
	// templates re-hit the advertisement registry, so skew controls the
	// reuse rate the server sees).
	MixSkew float64
	// UndeployFrac is the fraction of arrivals that retire an earlier
	// deployment instead of creating a new one (skipped while nothing is
	// deployed, so a trace prefix is always deploy-heavy).
	UndeployFrac float64
	// MinSources/MaxSources bound the streams per template.
	MinSources, MaxSources int
}

// The trace mix's fixed shape.
const (
	// tenants is the number of multiplexed tenants; tenantSkew is their
	// Zipf exponent (0 = uniform).
	tenants    = 4
	tenantSkew = 0.8
	// predProb is the probability a template carries a WHERE selection
	// predicate; aggProb the probability it carries a WINDOW/AGGREGATE
	// clause.
	predProb = 0.5
	aggProb  = 0.15
)

// DefaultTrace returns the standard serving-trace shape: Poisson
// arrivals at 100 req/s for 8 seconds, 12 templates with a mild mix skew,
// and a 15% undeploy share.
func DefaultTrace(seed int64) TraceConfig {
	return TraceConfig{
		Seed:     seed,
		Duration: 8, Rate: 100,
		Templates: 12, MixSkew: 1.1,
		UndeployFrac: 0.15,
		MinSources:   2, MaxSources: 4,
	}
}

// Trace event kinds.
const (
	KindDeploy   = "deploy"
	KindUndeploy = "undeploy"
)

// TraceEvent is one timestamped serving request.
type TraceEvent struct {
	// At is the arrival time in seconds of trace time.
	At float64 `json:"at"`
	// Kind is KindDeploy or KindUndeploy. Undeploy events carry no CQL:
	// whoever replays the trace retires the oldest outstanding deployment.
	Kind string `json:"kind"`
	// Tenant multiplexes the request stream ("tenant-N").
	Tenant string `json:"tenant"`
	// CQL is the statement to deploy (empty for undeploys).
	CQL string `json:"cql,omitempty"`
	// Sink is the delivery node for deploys.
	Sink int `json:"sink,omitempty"`
	// Template indexes the query shape the event instantiated (-1 for
	// undeploys), for mix-statistics checks.
	Template int `json:"template"`
}

// Trace is a synthesized request sequence plus the configuration and
// stream names it was drawn from.
type Trace struct {
	Config TraceConfig  `json:"config"`
	Names  []string     `json:"names"`
	Events []TraceEvent `json:"events"`
}

// zipfWeights returns normalized popularity weights w_i ∝ 1/(i+1)^s.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// pick samples an index from normalized weights.
func pick(rng *rand.Rand, w []float64) int {
	u := rng.Float64()
	for i, p := range w {
		u -= p
		if u < 0 {
			return i
		}
	}
	return len(w) - 1
}

// template is one query shape, rendered to CQL per arrival.
type template struct {
	stmt string
}

// synthTemplates draws the template pool: a stream subset, an optional
// selection predicate and an optional windowed aggregate each, rendered
// as CQL text so every arrival exercises the full wire decode + parse
// path.
func synthTemplates(cfg TraceConfig, names []string, rng *rand.Rand) []template {
	aggs := []string{"COUNT", "SUM", "AVG", "MAX", "MIN"}
	windows := []int{10, 30, 60}
	out := make([]template, cfg.Templates)
	for t := range out {
		k := cfg.MinSources
		if cfg.MaxSources > cfg.MinSources {
			k += rng.Intn(cfg.MaxSources - cfg.MinSources + 1)
		}
		perm := rng.Perm(len(names))
		stmt := "SELECT * FROM " + names[perm[0]]
		for i := 1; i < k; i++ {
			stmt += ", " + names[perm[i]]
		}
		if rng.Float64() < predProb {
			// Upper-bound predicates over the normalized [0,1] attribute
			// domain; the bound stays away from 0 so the range is valid.
			stmt += fmt.Sprintf(" WHERE %s.attr0 < %.3f", names[perm[0]], 0.2+0.75*rng.Float64())
		}
		if rng.Float64() < aggProb {
			stmt += fmt.Sprintf(" WINDOW %d AGGREGATE %s",
				windows[rng.Intn(len(windows))], aggs[rng.Intn(len(aggs))])
		}
		out[t] = template{stmt: stmt}
	}
	return out
}

// SynthesizeTrace draws a serving trace over the named streams and a
// network of n nodes. Identical inputs give bit-identical traces.
func SynthesizeTrace(cfg TraceConfig, names []string, n int) (*Trace, error) {
	if len(names) == 0 || n < 1 {
		return nil, fmt.Errorf("workload: trace needs streams and nodes")
	}
	if cfg.Duration <= 0 || cfg.Rate <= 0 {
		return nil, fmt.Errorf("workload: trace needs positive duration and rate")
	}
	if cfg.Templates < 1 {
		return nil, fmt.Errorf("workload: trace needs at least one template")
	}
	if cfg.MinSources < 2 || cfg.MaxSources < cfg.MinSources || cfg.MaxSources > len(names) {
		return nil, fmt.Errorf("workload: bad template source bounds [%d,%d] over %d streams",
			cfg.MinSources, cfg.MaxSources, len(names))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	templates := synthTemplates(cfg, names, rng)
	mixW := zipfWeights(cfg.Templates, cfg.MixSkew)
	tenantW := zipfWeights(tenants, tenantSkew)

	tr := &Trace{Config: cfg, Names: append([]string(nil), names...)}
	outstanding := 0
	t := 0.0
	for {
		t += rng.ExpFloat64() / cfg.Rate
		if t >= cfg.Duration {
			break
		}
		ev := TraceEvent{
			At:       t,
			Tenant:   fmt.Sprintf("tenant-%d", pick(rng, tenantW)),
			Template: -1,
		}
		if rng.Float64() < cfg.UndeployFrac && outstanding > 0 {
			ev.Kind = KindUndeploy
			outstanding--
		} else {
			ti := pick(rng, mixW)
			ev.Kind = KindDeploy
			ev.CQL = templates[ti].stmt
			ev.Sink = rng.Intn(n)
			ev.Template = ti
			outstanding++
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr, nil
}
