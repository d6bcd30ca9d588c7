// Command cqlsh is an interactive shell for the stream-query optimizer:
// it builds a transit-stub network and its clustering hierarchy, lets you
// register streams, and deploys SQL-like continuous queries, printing the
// chosen plan, its cost, and the search-space size.
//
//	$ go run ./cmd/cqlsh -nodes 64 -maxcs 16
//	> stream FLIGHTS 60 12
//	> stream CHECK-INS 45 13
//	> sel FLIGHTS CHECK-INS 0.004
//	> deploy 14 td SELECT * FROM FLIGHTS, CHECK-INS \
//	       WHERE FLIGHTS.NUM = CHECK-INS.FLNUM
//	plan: (s[0]@12 ⋈@13 s[1]@13)   cost: 22.8   plans examined: 48
//
// Lines ending in '\' continue on the next line. Type help for commands.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hnp"
)

func main() {
	var (
		nodes = flag.Int("nodes", 64, "network size")
		maxCS = flag.Int("maxcs", 16, "max cluster size")
		seed  = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	g := hnp.TransitStubNetwork(*nodes, *seed)
	sys, err := hnp.NewSystem(g, *maxCS, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cqlsh: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("hnp cqlsh — %d-node transit-stub network, max_cs %d. Type help.\n", *nodes, *maxCS)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() > 0 {
			fmt.Print("... ")
		} else {
			fmt.Print("> ")
		}
	}
	for prompt(); sc.Scan(); prompt() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasSuffix(line, `\`) {
			pending.WriteString(strings.TrimSuffix(line, `\`))
			pending.WriteByte(' ')
			continue
		}
		pending.WriteString(line)
		cmd := strings.TrimSpace(pending.String())
		pending.Reset()
		if cmd == "" {
			continue
		}
		if cmd == "quit" || cmd == "exit" {
			return
		}
		if err := execute(sys, cmd); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
}

func execute(sys *hnp.System, cmd string) error {
	fields := strings.Fields(cmd)
	switch strings.ToLower(fields[0]) {
	case "help":
		fmt.Print(`commands:
  stream NAME RATE NODE          register a base stream
  sel NAME1 NAME2 SELECTIVITY    set a pairwise join selectivity
  deploy SINK ALGO SELECT ...    deploy a query (algo: td | bu | opt | ptd)
  plan SINK ALGO SELECT ...      plan without deploying (what-if)
  penalty ALPHA                  enable load-aware planning
  load NODE RATE                 add background load to a node
  ads                            list advertised derived streams
  quit
`)
		return nil
	case "stream":
		if len(fields) != 4 {
			return fmt.Errorf("usage: stream NAME RATE NODE")
		}
		rate, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return err
		}
		node, err := strconv.Atoi(fields[3])
		if err != nil {
			return err
		}
		if node < 0 || node >= sys.Graph.NumNodes() {
			return fmt.Errorf("node %d out of range", node)
		}
		id := sys.AddStream(strings.ToUpper(fields[1]), rate, hnp.NodeID(node))
		fmt.Printf("stream %s registered as #%d at node %d\n", strings.ToUpper(fields[1]), id, node)
		return nil
	case "sel":
		if len(fields) != 4 {
			return fmt.Errorf("usage: sel NAME1 NAME2 SELECTIVITY")
		}
		a, err := lookup(sys, fields[1])
		if err != nil {
			return err
		}
		b, err := lookup(sys, fields[2])
		if err != nil {
			return err
		}
		s, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return err
		}
		sys.SetSelectivity(a, b, s)
		return nil
	case "penalty":
		if len(fields) != 2 {
			return fmt.Errorf("usage: penalty ALPHA")
		}
		alpha, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return err
		}
		sys.SetLoadPenalty(alpha)
		fmt.Printf("load penalty alpha = %g\n", alpha)
		return nil
	case "load":
		if len(fields) != 3 {
			return fmt.Errorf("usage: load NODE RATE")
		}
		node, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		rate, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return err
		}
		sys.AddLoad(hnp.NodeID(node), rate)
		return nil
	case "ads":
		all := sys.Registry.All()
		if len(all) == 0 {
			fmt.Println("(no advertisements)")
		}
		for _, ad := range all {
			fmt.Printf("  [%s] at node %d (rate %.2f, query %d)\n", ad.Sig, ad.Node, ad.Rate, ad.QueryID)
		}
		return nil
	case "deploy", "plan":
		if len(fields) < 4 {
			return fmt.Errorf("usage: %s SINK ALGO SELECT ...", fields[0])
		}
		sink, err := strconv.Atoi(fields[1])
		if err != nil || sink < 0 || sink >= sys.Graph.NumNodes() {
			return fmt.Errorf("bad sink %q", fields[1])
		}
		algo, err := parseAlgo(fields[2])
		if err != nil {
			return err
		}
		stmt := strings.Join(fields[3:], " ")
		var d hnp.Deployment
		if strings.EqualFold(fields[0], "deploy") {
			d, err = sys.DeployCQL(stmt, hnp.NodeID(sink), algo)
		} else {
			d, err = sys.PlanCQL(stmt, hnp.NodeID(sink), algo) // what-if: nothing advertised
		}
		if err != nil {
			return err
		}
		fmt.Printf("plan: %s\ncost: %.2f per unit time   plans examined: %.0f\n",
			d.Plan, d.Cost, d.PlansConsidered)
		return nil
	}
	return fmt.Errorf("unknown command %q (try help)", fields[0])
}

func lookup(sys *hnp.System, name string) (hnp.StreamID, error) {
	want := strings.ToUpper(name)
	for i := 0; i < sys.Catalog.NumStreams(); i++ {
		if sys.Catalog.Stream(hnp.StreamID(i)).Name == want {
			return hnp.StreamID(i), nil
		}
	}
	return 0, fmt.Errorf("unknown stream %q", name)
}

// algoAliases are the shell's short spellings; everything else is the
// library's own naming (hnp.ParseAlgorithm).
var algoAliases = map[string]string{
	"td": "top-down", "topdown": "top-down",
	"bu": "bottom-up", "bottomup": "bottom-up",
	"opt": "optimal", "ptd": "plan-then-deploy",
}

func parseAlgo(s string) (hnp.Algorithm, error) {
	name := strings.ToLower(s)
	if full, ok := algoAliases[name]; ok {
		name = full
	}
	algo, ok := hnp.ParseAlgorithm(name)
	if !ok {
		return 0, fmt.Errorf("unknown algorithm %q (td|bu|opt|ptd)", s)
	}
	return algo, nil
}
