package netgraph

import (
	"strings"
	"testing"
)

// The format cmd/topogen prints, byte for byte: size header, column
// header, one line per link in Links order, %g numbers.
func TestWriteEdgeListGolden(t *testing.T) {
	g := New(4) // node 3 is isolated: only the header records it
	g.MustAddLink(0, 1, 2.5, 0.01)
	g.MustAddLink(1, 2, 1, 0.125)
	g.MustAddLink(0, 2, 1e-3, 0)
	const want = `# nodes 4 links 3
# columns: nodeA nodeB costPerByte delaySeconds
0 1 2.5 0.01
0 2 0.001 0
1 2 1 0.125
`
	var buf strings.Builder
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("edge list:\n%s\nwant:\n%s", buf.String(), want)
	}
}
