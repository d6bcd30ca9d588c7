package hnp_test

import (
	"fmt"

	"hnp"
)

// Deploying a three-way join: the optimizer picks a bushy join order and
// operator placements jointly.
func ExampleSystem_Deploy() {
	g := hnp.TransitStubNetwork(64, 1)
	sys, _ := hnp.NewSystem(g, 8, 1)
	orders := sys.AddStream("ORDERS", 80, 10)
	inventory := sys.AddStream("INVENTORY", 35, 33)
	sys.SetSelectivity(orders, inventory, 0.004)

	d, _ := sys.Plan([]hnp.StreamID{orders, inventory}, 7, hnp.AlgoTopDown)
	if err := sys.Deploy(d); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(d.Plan)
	// Output: (s[0]@10 ⋈@10 s[1]@33)
}

// Queries can be written in the paper's SQL-like syntax; predicates join
// the signature, so operators computed under different predicates never
// alias and stricter queries reuse weaker ones via residual filters.
// Deploy commits the planned statement.
func ExampleSystem_PlanCQL() {
	g := hnp.TransitStubNetwork(64, 1)
	sys, _ := hnp.NewSystem(g, 8, 1)
	sys.AddStream("FLIGHTS", 60, 12)
	sys.AddStream("CHECK-INS", 45, 13)

	d, err := sys.PlanCQL(`SELECT FLIGHTS.STATUS, CHECK-INS.STATUS
	                       FROM FLIGHTS, CHECK-INS
	                       WHERE FLIGHTS.NUM = CHECK-INS.FLNUM
	                         AND FLIGHTS.DP_TIME < 0.5`, 14, hnp.AlgoTopDown)
	if err == nil {
		err = sys.Deploy(d)
	}
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(d.Query.K(), "streams,", len(d.Plan.Operators()), "operator")
	// Output: 2 streams, 1 operator
}

// Comparing the search spaces: the hierarchical algorithms examine a tiny
// fraction of the exhaustive joint space (Lemma 1) at near-optimal cost.
func ExampleSystem_Plan() {
	g := hnp.TransitStubNetwork(128, 1)
	sys, _ := hnp.NewSystem(g, 32, 1)
	a := sys.AddStream("A", 50, 3)
	b := sys.AddStream("B", 40, 60)
	c := sys.AddStream("C", 30, 100)
	sys.SetSelectivity(a, b, 0.01)
	sys.SetSelectivity(a, c, 0.01)
	sys.SetSelectivity(b, c, 0.01)

	td, _ := sys.Plan([]hnp.StreamID{a, b, c}, 9, hnp.AlgoTopDown)
	opt, _ := sys.Plan([]hnp.StreamID{a, b, c}, 9, hnp.AlgoOptimal)
	fmt.Printf("top-down examined %.4f%% of the exhaustive space\n",
		100*td.PlansConsidered/opt.PlansConsidered)
	fmt.Println("within optimal:", td.Cost <= opt.Cost*1.25)
	// Output:
	// top-down examined 0.1709% of the exhaustive space
	// within optimal: true
}
