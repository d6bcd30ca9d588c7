// Containment demonstrates the query-containment extension (the paper's
// §5 future work): a broad monitoring query is deployed first; narrower
// queries over the same streams then reuse its operators through residual
// filters applied at the producing nodes, instead of re-joining the base
// streams from scratch.
package main

import (
	"fmt"
	"log"

	"hnp"
)

func main() {
	g := hnp.TransitStubNetwork(64, 17)
	sys, err := hnp.NewSystem(g, 16, 17)
	if err != nil {
		log.Fatal(err)
	}

	flights := sys.AddStream("FLIGHTS", 60, 11)
	checkins := sys.AddStream("CHECK-INS", 45, 40)
	sys.SetSelectivity(flights, checkins, 0.004)
	srcs := []hnp.StreamID{flights, checkins}
	// deploy commits a planned query: Plan*, then Deploy.
	deploy := func(d hnp.Deployment, err error) hnp.Deployment {
		if err == nil {
			err = sys.Deploy(d)
		}
		if err != nil {
			log.Fatal(err)
		}
		return d
	}

	// A broad operations dashboard: all flights departing within 24h
	// (dp_time normalized to [0,1] over the horizon).
	broad := hnp.MustPredSet(hnp.Pred{
		Stream: flights, Attr: "dp_time", Range: hnp.Range{Lo: 0, Hi: 1},
	})
	dash := deploy(sys.PlanWhere(srcs, 9, hnp.AlgoTopDown, broad))
	fmt.Println("broad dashboard (24h horizon):")
	fmt.Printf("  plan: %s\n  cost: %.1f\n\n", dash.Plan, dash.Cost)

	// A gate display needs only the next 3 hours — strictly contained in
	// the dashboard's results.
	narrow := hnp.MustPredSet(hnp.Pred{
		Stream: flights, Attr: "dp_time", Range: hnp.Range{Lo: 0, Hi: 0.125},
	})
	gate := deploy(sys.PlanWhere(srcs, 33, hnp.AlgoTopDown, narrow))
	fmt.Println("gate display (3h horizon), planned with containment:")
	fmt.Printf("  plan: %s\n  marginal cost: %.1f\n", gate.Plan, gate.Cost)
	for _, leaf := range gate.Plan.Leaves() {
		if leaf.In.Derived {
			fmt.Printf("  -> reuses [%s] at node %d", leaf.In.Sig, leaf.Loc)
			if leaf.In.BaseSig != "" {
				fmt.Printf(" via residual filter on the broader stream [%s]", leaf.In.BaseSig)
			}
			fmt.Println()
		}
	}

	// The same query in a world without the dashboard: full price.
	fresh, err := hnp.NewSystem(g, 16, 17)
	if err != nil {
		log.Fatal(err)
	}
	f2 := fresh.AddStream("FLIGHTS", 60, 11)
	c2 := fresh.AddStream("CHECK-INS", 45, 40)
	fresh.SetSelectivity(f2, c2, 0.004)
	narrow2 := hnp.MustPredSet(hnp.Pred{
		Stream: f2, Attr: "dp_time", Range: hnp.Range{Lo: 0, Hi: 0.125},
	})
	alone, err := fresh.PlanWhere([]hnp.StreamID{f2, c2}, 33, hnp.AlgoTopDown, narrow2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwithout containment the gate display would cost %.1f (%.0f%% more)\n",
		alone.Cost, 100*(alone.Cost/gate.Cost-1))

	// The reverse is impossible: a broader query cannot be answered from a
	// narrower stream; it deploys fresh operators instead.
	wider := hnp.MustPredSet(hnp.Pred{
		Stream: flights, Attr: "dp_time", Range: hnp.Range{Lo: 0, Hi: 0.5},
	})
	half := deploy(sys.PlanWhere(srcs, 50, hnp.AlgoTopDown, wider))
	fromGate := false
	for _, leaf := range half.Plan.Leaves() {
		if leaf.In.Derived && leaf.In.BaseSig != "" && leaf.In.BaseSig == gate.Query.SigOf(gate.Query.All()) {
			fromGate = true
		}
	}
	fmt.Printf("\n12h query deployed (cost %.1f); reused the 3h gate stream: %v "+
		"(it can reuse the 24h dashboard, never the narrower gate stream)\n",
		half.Cost, fromGate)
}
