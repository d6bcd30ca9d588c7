// OIS recreates the paper's motivating scenario (Section 1.1): Delta Air
// Lines' Operational Information System with WEATHER, FLIGHTS and
// CHECK-INS streams, using the paper's own SQL-like query text. Query Q2
// (FLIGHTS ⋈ CHECK-INS for Atlanta departures) is deployed first; query
// Q1 then joins all three streams with the same predicates, and the
// optimizer decides — during planning, not after — whether to reuse Q2's
// deployed join or to duplicate it, exactly the trade-off the paper
// motivates with this example.
package main

import (
	"fmt"
	"log"

	"hnp"
)

// The paper's queries, §1.1, with DP-TIME - CURRENT TIME < 12:00 written
// as a normalized departure-time predicate (12h of a 24h horizon = 0.5).
const (
	q2SQL = `SELECT FLIGHTS.STATUS, CHECK-INS.STATUS
	         FROM FLIGHTS, CHECK-INS
	         WHERE FLIGHTS.DEPARTING = 'ATLANTA'
	           AND FLIGHTS.NUM = CHECK-INS.FLNUM
	           AND FLIGHTS.DP_TIME < 0.5`

	q1SQL = `SELECT FLIGHTS.STATUS, WEATHER.FORECAST, CHECK-INS.STATUS
	         FROM FLIGHTS, WEATHER, CHECK-INS
	         WHERE FLIGHTS.DEPARTING = 'ATLANTA'
	           AND FLIGHTS.DESTN = WEATHER.CITY
	           AND FLIGHTS.NUM = CHECK-INS.FLNUM
	           AND FLIGHTS.DP_TIME < 0.5`
)

func main() {
	// A 32-node airline network: cheap intranet clusters (airports/hubs)
	// behind a costly backbone.
	g := hnp.TransitStubNetwork(32, 7)
	sys, err := hnp.NewSystem(g, 8, 7)
	if err != nil {
		log.Fatal(err)
	}

	// Stream sources: flight events are high volume; weather updates and
	// check-in events are lighter. Joins on flight number / destination
	// city are selective.
	weather := sys.AddStream("WEATHER", 18, 5)
	flights := sys.AddStream("FLIGHTS", 60, 12)
	checkins := sys.AddStream("CHECK-INS", 45, 13)
	sys.SetSelectivity(flights, weather, 0.012)
	sys.SetSelectivity(flights, checkins, 0.004)
	sys.SetSelectivity(weather, checkins, 0.020)
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

	// Q2: gate-agent display near the check-in systems (sink node 14).
	q2 := deploy(sys.PlanCQL(q2SQL, 14, hnp.AlgoTopDown))
	fmt.Println("Q2 = FLIGHTS ⋈ CHECK-INS (Atlanta, <12h)  ->  sink 14")
	fmt.Printf("  plan: %s\n  cost: %.1f per unit time\n\n", q2.Plan, q2.Cost)

	// Q1: terminal overhead display elsewhere (sink node 9).
	q1 := deploy(sys.PlanCQL(q1SQL, 9, hnp.AlgoTopDown))
	fmt.Println("Q1 = FLIGHTS ⋈ WEATHER ⋈ CHECK-INS (same predicates)  ->  sink 9")
	fmt.Printf("  plan: %s\n  marginal cost: %.1f per unit time\n", q1.Plan, q1.Cost)

	reused := false
	for _, leaf := range q1.Plan.Leaves() {
		if leaf.In.Derived {
			reused = true
			fmt.Printf("  -> reuses deployed operator [%s] at node %d (derived stream)\n",
				leaf.In.Sig, leaf.Loc)
		}
	}
	if !reused {
		fmt.Println("  -> duplicating FLIGHTS ⋈ CHECK-INS was cheaper than reuse here")
	}

	// What would Q1 have cost without knowing about Q2's operators?
	fresh, err := hnp.NewSystem(g, 8, 7)
	if err != nil {
		log.Fatal(err)
	}
	fresh.AddStream("WEATHER", 18, 5)
	f2 := fresh.AddStream("FLIGHTS", 60, 12)
	c2 := fresh.AddStream("CHECK-INS", 45, 13)
	fresh.SetSelectivity(f2, weather, 0.012)
	fresh.SetSelectivity(f2, c2, 0.004)
	fresh.SetSelectivity(weather, c2, 0.020)
	alone, err := fresh.PlanCQL(q1SQL, 9, hnp.AlgoTopDown)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQ1 planned in isolation would cost %.1f; multi-query awareness saves %.1f%%\n",
		alone.Cost, 100*(1-q1.Cost/alone.Cost))
}
