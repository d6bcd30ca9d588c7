// Adaptive runs a query inside the simulated IFLOW runtime, changes the
// conditions it was planned for mid-flight — a stream's live rate jumps
// and the links around the deployed operators get expensive — and shows
// the middleware layer noticing the drift, re-triggering the optimizer
// and migrating the running deployment: the self-adaptivity loop of
// Figure 1(b). One lifecycle engine carries it all; the example never
// touches the advertisement registry, the load ledger or a path snapshot.
package main

import (
	"fmt"
	"log"

	"hnp"
	"hnp/internal/adapt"
	"hnp/internal/engine"
	"hnp/internal/iflow"
)

func main() {
	g := hnp.TransitStubNetwork(32, 11)
	sys, err := hnp.NewSystem(g, 8, 11)
	if err != nil {
		log.Fatal(err)
	}
	const horizon = 240.0
	eng := engine.NewEngine(sys, iflow.DefaultConfig(), 11, horizon)
	a := eng.AddStream("SENSORS-A", 50, 3)
	b := eng.AddStream("SENSORS-B", 40, 21)
	c := eng.AddStream("ALERTS", 10, 28)
	eng.SetSelectivity(a, b, 0.006)
	eng.SetSelectivity(a, c, 0.015)
	eng.SetSelectivity(b, c, 0.020)

	dep, err := eng.Plan([]hnp.StreamID{a, b, c}, 8, hnp.AlgoTopDown)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Deploy(dep); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial plan (cost %.1f): %s\n", dep.Cost, dep.Plan)
	fmt.Printf("deployment protocol took %.3fs (simulated)\n\n", eng.RT.DeployTime(dep.Trace, 8))

	// Middleware: every 10s the controller compares the windowed live rates
	// with the catalog the plan was costed against, recalibrates, re-plans
	// past the drift gate, and migrates when the predicted byte savings
	// beat the churn of moving operators.
	var churn iflow.MigrationReport
	eng.OnMigrate = func(q *hnp.Query, old, new *hnp.PlanNode, rep iflow.MigrationReport) {
		fmt.Printf("t=%.0fs: migrated %s -> %s\n", eng.RT.Sim.Now(), old, new)
		churn = rep
	}
	ctl := eng.AttachController(adapt.Config{Interval: 10})

	// At t=40s an alert storm: the ALERTS tap jumps to 20x the rate the
	// plan assumed, and every link touching the current operators becomes
	// 50x more expensive.
	eng.RT.Sim.Schedule(40, func() {
		fmt.Printf("t=%.0fs: alert storm! ALERTS at 20x its planned rate, links around deployed operators 50x the price\n", eng.RT.Sim.Now())
		if _, err := eng.SetLiveRate(c, 200); err != nil {
			log.Fatal(err)
		}
		var burst []iflow.LinkCostUpdate
		for _, op := range eng.RT.DeployedPlan(dep.Query.ID).Operators() {
			for _, nb := range g.Neighbors(op.Loc) {
				cost, _ := g.LinkCost(op.Loc, nb)
				burst = append(burst, iflow.LinkCostUpdate{A: op.Loc, B: nb, Cost: cost * 50})
			}
		}
		if err := eng.UpdateLinkCosts(burst...); err != nil {
			log.Fatal(err)
		}
	})

	eng.RT.RunFor(horizon)

	st := ctl.Stats()
	fmt.Printf("\nmiddleware checks: %d, re-plans: %d, plan migrations: %d (suppressed %d)\n",
		st.Checks, st.Replans, st.Migrations, st.Suppressed())
	if st.Migrations > 0 {
		fmt.Printf("last migration churn: kept %d ops running, created %d, retired %d (moved %d, rewired %d)\n",
			churn.Kept, churn.Created, churn.Retired, churn.Moved, churn.Rewired)
		fmt.Printf("  teardown would have churned %d ops; carried %d buffered tuples (%.0f bytes) in place\n",
			churn.TeardownOps, churn.StateCarried, churn.BytesSaved)
	}
	fmt.Printf("final plan: %s\n", eng.RT.DeployedPlan(dep.Query.ID))
	sink := eng.RT.Sink(dep.Query.ID)
	fmt.Printf("delivered %d result tuples; mean latency %.0fms; measured cost rate %.1f\n",
		sink.Tuples, 1000*sink.MeanLatency(), eng.RT.CostRate())
	if err := eng.Audit(); err != nil {
		log.Fatalf("engine audit: %v", err)
	}
	if st.Migrations > 0 {
		fmt.Println("the deployment adapted without stopping the query; registry, ledger and snapshots still match the runtime")
	}
}
