package cql

import (
	"fmt"
	"testing"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// TestParseAllocs pins Parse's allocations for the serving benchmark's
// statement shape (workload.SynthesizeTrace: five of 24 streams, one range
// predicate) and, the point of the catalog's name index, their
// independence from the catalog's size: a statement resolves the names it
// mentions, not every name there is.
func TestParseAllocs(t *testing.T) {
	const stmt = "SELECT * FROM stream-3, stream-17, stream-0, stream-21, stream-9 WHERE stream-3.attr0 < 0.431"
	var perSize [2]float64
	for i, streams := range []int{24, 2400} {
		cat := query.NewCatalog(0.01)
		for s := 0; s < streams; s++ {
			cat.Add(fmt.Sprintf("stream-%d", s), 10, netgraph.NodeID(s%128))
		}
		if _, err := Parse(cat, stmt); err != nil {
			t.Fatal(err)
		}
		perSize[i] = testing.AllocsPerRun(200, func() { Parse(cat, stmt) })
	}
	if perSize[0] != perSize[1] {
		t.Errorf("Parse allocates %v objects against 24 streams, %v against 2400", perSize[0], perSize[1])
	}
	if perSize[0] > 30 {
		t.Errorf("Parse allocates %v objects for the benchmark's statement shape, want <= 30", perSize[0])
	}
	t.Logf("Parse: %v allocs/statement", perSize[0])
}
