package netgraph

import (
	"bufio"
	"fmt"
	"io"
)

// WriteEdgeList writes the graph in the plain edge-list interchange
// format cmd/topogen emits: a comment header, then one "a b cost delay"
// line per link.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# nodes %d links %d\n", g.NumNodes(), g.NumLinks())
	fmt.Fprintf(bw, "# columns: nodeA nodeB costPerByte delaySeconds\n")
	for _, l := range g.Links() {
		// %g prints the shortest representation that parses back to the
		// exact value, so a reader loses nothing.
		fmt.Fprintf(bw, "%d %d %g %g\n", l.A, l.B, l.Cost, l.Delay)
	}
	return bw.Flush()
}
