// Command smqd is the long-running query-serving daemon: it boots a
// sharded set of hnp.Systems over a seeded transit-stub topology and a
// synthesized stream catalog, then serves the CQL lifecycle over HTTP
// (see internal/serve for the endpoint and admission-control design).
//
//	go run ./cmd/smqd -addr :8080 -shards 4 -nodes 128 -max-cs 32
//
// Endpoints:
//
//	POST /deploy    {"cql": "SELECT * FROM stream-1, stream-4", "sink": 7,
//	                 "algo": "top-down", "tenant": "t0"}
//	POST /undeploy  ?id=N or {"id": N}
//	GET  /explain   ?id=N          annotated per-level planning trace
//	GET  /snapshot  [?shard=N]     serving + per-shard telemetry snapshots
//	GET  /metrics                  serving counters/gauges/histograms
//	GET  /flight    [?shard=N]     a shard's causal flight recorder
//	GET  /healthz
//
// Overloaded shards answer 429 with a Retry-After header (admission
// control); the rejection count is in /metrics as "serving.rejected".
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"

	"hnp"
	"hnp/internal/serve"
)

func main() {
	cfg := serve.DefaultConfig()
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		algoName = flag.String("algo", "top-down", "default planning algorithm (top-down, bottom-up, optimal, plan-then-deploy)")
	)
	flag.IntVar(&cfg.Shards, "shards", cfg.Shards, "independent planning shards")
	flag.IntVar(&cfg.Nodes, "nodes", cfg.Nodes, "network size (one network, shared by every shard)")
	flag.IntVar(&cfg.MaxCS, "max-cs", cfg.MaxCS, "max cluster size for the hierarchy")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "topology/catalog seed (identical on every shard)")
	flag.IntVar(&cfg.Streams, "streams", cfg.Streams, "synthesized catalog size")
	flag.IntVar(&cfg.MaxInFlight, "max-inflight", cfg.MaxInFlight, "in-flight plans per shard before 429s")
	flag.Int64Var(&cfg.MaxBody, "max-body", cfg.MaxBody, "request body limit in bytes")
	flag.BoolVar(&cfg.FlightRecorder, "flight", cfg.FlightRecorder, "arm per-shard flight recorders")
	flag.Parse()

	algo, ok := hnp.ParseAlgorithm(*algoName)
	if !ok {
		fmt.Fprintf(os.Stderr, "smqd: unknown -algo %q\n", *algoName)
		os.Exit(2)
	}
	cfg.DefaultAlgo = algo

	s, err := serve.NewServer(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smqd: %v\n", err)
		os.Exit(1)
	}
	log.Printf("smqd: serving on http://%s (%d shards × %d nodes, max_cs=%d, %d streams, %d in-flight plans/shard)",
		*addr, cfg.Shards, cfg.Nodes, cfg.MaxCS, cfg.Streams, cfg.MaxInFlight)
	log.Fatal(http.ListenAndServe(*addr, s))
}
