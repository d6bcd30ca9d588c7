// Command topogen generates transit-stub network topologies (the GT-ITM
// model the paper evaluates on) and prints them as an edge list:
//
//	topogen -n 128 -seed 1
//
// Output lines are "a b cost delay", preceded by a comment header, so the
// topology can be piped into other tools or inspected by hand.
package main

import (
	"flag"
	"fmt"
	"os"

	"hnp/internal/netgraph"
	"hnp/internal/stats"
)

func main() {
	var (
		n       = flag.Int("n", 128, "total number of nodes")
		seed    = flag.Int64("seed", 1, "random seed")
		transit = flag.Int("transit", 4, "transit (backbone) domain size")
		stubs   = flag.Int("stubs", 4, "stub domains per transit node")
	)
	flag.Parse()

	cfg := netgraph.DefaultTransitStub(*n)
	cfg.TransitNodes = *transit
	cfg.StubsPerTransit = *stubs
	g, err := netgraph.TransitStub(cfg, stats.NewRand(*seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("# transit-stub topology, seed %d\n", *seed)
	if err := netgraph.WriteEdgeList(os.Stdout, g); err != nil {
		fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
		os.Exit(1)
	}
}
