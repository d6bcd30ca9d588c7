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
// SIGINT or SIGTERM drains the requests in flight before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hnp"
	"hnp/internal/serve"
)

// Connection timeouts, so that a client that stalls while sending its
// request, or never reads its response, cannot hold a connection and a
// goroutine forever; and the drain allowance on shutdown.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 2 * time.Minute
	drainTimeout      = 30 * time.Second
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
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("smqd: %v", err)
	}
	log.Printf("smqd: serving on http://%s (%d shards × %d nodes, max_cs=%d, %d streams, %d in-flight plans/shard)",
		*addr, cfg.Shards, cfg.Nodes, cfg.MaxCS, cfg.Streams, cfg.MaxInFlight)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serveUntil(ctx, ln, s); err != nil {
		log.Fatalf("smqd: %v", err)
	}
}

// serveUntil serves h on ln under the connection timeouts until ctx is
// done, then shuts down: no new connections, in-flight requests drain.
func serveUntil(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout: readTimeout, WriteTimeout: writeTimeout, IdleTimeout: idleTimeout}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return srv.Shutdown(dctx)
}
