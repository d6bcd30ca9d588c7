package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"

	"hnp/internal/serve"
	"hnp/internal/workload"
)

// servingSpec is one serving workload: the statement mix, the bounded
// working set W, and how much of it one run serves.
type servingSpec struct {
	name string
	// templates/skew/minSrc/maxSrc shape the statement mix
	// (workload.TraceConfig); the rest of the mix is DefaultTrace's.
	templates      int
	skew           float64
	minSrc, maxSrc int
	// w is the number of deployments kept outstanding: after every
	// acknowledged deploy the oldest handle beyond w is undeployed.
	w int
	// pairs is the number of measured deploy+undeploy pairs of a
	// fixed-count run at -scale 1, cut into `rounds` equal rounds.
	pairs int
	// roundPairs is the round length of a fixed-time run (-seconds): short
	// enough that a run has some thirty rounds to take the median of.
	roundPairs int
	// setups is how many times a fixed-time run builds and preloads the
	// server to report the median set-up time.
	setups int
	// tracedPairs caps the traced pass.
	tracedPairs int
}

var servingSpecs = []servingSpec{
	{name: "serve-hot", templates: 12, skew: 1.1, minSrc: 3, maxSrc: 3,
		w: 256, pairs: 100000, roundPairs: 2000, setups: 15, tracedPairs: 3000},
	{name: "serve-cold", templates: 4096, skew: 0, minSrc: 4, maxSrc: 6,
		w: 256, pairs: 20000, roundPairs: 400, setups: 9, tracedPairs: 3000},
	{name: "serve-standing", templates: 4096, skew: 0, minSrc: 4, maxSrc: 6,
		w: 2048, pairs: 6000, roundPairs: 120, setups: 3, tracedPairs: 1000},
}

func findSpec(name string) (servingSpec, bool) {
	for _, s := range servingSpecs {
		if s.name == name {
			return s, true
		}
	}
	return servingSpec{}, false
}

// request is one generated deploy: the wire body the server receives and
// the fields the twin replays it from.
type request struct {
	body   []byte
	cql    string
	tenant string
	sink   int
}

// sequence is a workload's whole input, generated from the seed alone
// before any server exists: reqs[i] is the i-th deploy, and the deploy
// that makes the outstanding count exceed W retires the oldest handle, so
// the retire order is fixed too. Hash covers all of it.
type sequence struct {
	reqs []request
	w    int
	hash uint64
}

// catalogNames returns the stream names smqd's shards register, drawn the
// way serve.NewServer draws them, without building a server.
func catalogNames(cfg serve.Config) ([]string, error) {
	specs, _, err := workload.CatalogSpec(workload.Default(cfg.Streams, 0), cfg.Nodes,
		rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	return names, nil
}

// genSequence draws w+n deploys for spec from seed. The trace's arrival
// times are ignored (the loop is closed) and it carries no undeploy
// events: retirement is the harness's FIFO.
func genSequence(spec servingSpec, seed int64, n int) (*sequence, error) {
	cfg := serve.DefaultConfig()
	names, err := catalogNames(cfg)
	if err != nil {
		return nil, err
	}
	need := spec.w + n
	tc := workload.DefaultTrace(seed)
	tc.Templates, tc.MixSkew = spec.templates, spec.skew
	tc.MinSources, tc.MaxSources = spec.minSrc, spec.maxSrc
	tc.UndeployFrac = 0
	tc.Rate = 1000
	// Poisson arrivals: 10% + 1s of slack makes a short draw vanishingly
	// rare, and the loop covers it anyway.
	tc.Duration = float64(need)/tc.Rate*1.1 + 1
	var tr *workload.Trace
	for {
		tr, err = workload.SynthesizeTrace(tc, names, cfg.Nodes)
		if err != nil {
			return nil, err
		}
		if len(tr.Events) >= need {
			break
		}
		tc.Duration *= 2
	}
	seq := &sequence{reqs: make([]request, need), w: spec.w}
	h := fnv.New64a()
	fmt.Fprintf(h, "w=%d\n", spec.w)
	for i := range seq.reqs {
		ev := tr.Events[i]
		body, err := json.Marshal(serve.DeployRequest{CQL: ev.CQL, Sink: ev.Sink, Tenant: ev.Tenant})
		if err != nil {
			return nil, err
		}
		seq.reqs[i] = request{body: body, cql: ev.CQL, tenant: ev.Tenant, sink: ev.Sink}
		h.Write(body)
		io.WriteString(h, "\n")
	}
	seq.hash = h.Sum64()
	return seq, nil
}
