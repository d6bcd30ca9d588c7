package hnp_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hnp/internal/adapt"
	"hnp/internal/engine"
	"hnp/internal/exp"
	"hnp/internal/iflow"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
	"hnp/internal/serve"
)

// TestMetricCatalog holds README's metric catalog to the registries: every
// name a registry records has a row, and every row names something a
// registry records. It drives every registry that records: an engine
// through its whole lifecycle, a server through one deploy and undeploy,
// and one figure, whose progress counters land on obs.Default.
func TestMetricCatalog(t *testing.T) {
	recorded := map[string]bool{}
	collect := func(s obs.Snapshot) {
		for _, n := range s.Names() {
			recorded[n] = true
		}
	}
	collect(catalogEngine(t))
	for _, s := range catalogServer(t) {
		collect(s)
	}
	if _, err := exp.Fig2(exp.Config{Seed: 42, Workloads: 1, Queries: 2}); err != nil {
		t.Fatal(err)
	}
	collect(obs.Default.Snapshot())

	rows := readCatalog(t, "README.md")
	matched := make([]bool, len(rows))
	for name := range recorded {
		found := false
		for i, r := range rows {
			if r.re.MatchString(name) {
				matched[i], found = true, true
			}
		}
		if !found {
			t.Errorf("metric %q is recorded but has no catalog row", name)
		}
	}
	for i, r := range rows {
		if !matched[i] {
			t.Errorf("catalog row %q names nothing a registry recorded", r.name)
		}
	}
}

// TestDesignReferences holds every pointer into DESIGN.md to a heading
// that exists. A `DESIGN §N` names a numbered section; DESIGN followed by
// a quoted title names a section or subsection without its number. The
// pointers are read from every Go file and from README, EXPERIMENTS and
// ROADMAP; one may break across lines, in a comment too.
func TestDesignReferences(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	numbers, titles := map[string]bool{}, map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^#{2,3} (?:(\d+)\. )?(.+)$`).FindAllStringSubmatch(string(design), -1) {
		if m[1] != "" {
			numbers[m[1]] = true
		}
		titles[m[2]] = true
	}
	files := []string{"README.md", "EXPERIMENTS.md", "ROADMAP.md"}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if err == nil && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := regexp.MustCompile("DESIGN(?:\\.md)?`?(?:\\s|//)+(?:§(\\d+)|\"([^\"]+)\")")
	space := regexp.MustCompile(`(?:\s|//)+`)
	refs := 0
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllStringSubmatch(string(text), -1) {
			refs++
			ok := numbers[m[1]]
			if m[1] == "" {
				ok = titles[space.ReplaceAllString(m[2], " ")]
			}
			if !ok {
				t.Errorf("%s: %q names no DESIGN.md heading", path, space.ReplaceAllString(m[0], " "))
			}
		}
	}
	if refs == 0 {
		t.Error("found no DESIGN references at all; the pattern no longer matches how they are written")
	}
}

// catalogEngine runs a runtime-backed engine through CQL and programmatic
// deploys, a migration, a link update, a node failure
// and recovery, and the controller, and returns its registry's snapshot.
func catalogEngine(t *testing.T) obs.Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	g := netgraph.MustTransitStub(32, rng)
	sys, err := engine.Build(g, g.ShortestPaths(netgraph.MetricCost), query.NewCatalog(0.01), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	used := map[netgraph.NodeID]bool{}
	for i := 0; i < 4; i++ {
		src := netgraph.NodeID(rng.Intn(32))
		used[src] = true
		sys.AddStream(fmt.Sprintf("S%d", i), 20+10*float64(i), src)
	}
	e := engine.NewEngine(sys, iflow.DefaultConfig(), 3, 200)
	sink := netgraph.NodeID(rng.Intn(32))
	used[sink] = true

	deploy := func(d engine.Deployment, err error) engine.Deployment {
		t.Helper()
		if err == nil {
			err = e.Deploy(d)
		}
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	deploy(e.PlanCQL("SELECT * FROM S0, S1 WHERE S0.attr0 < 0.5", sink, engine.AlgoTopDown))
	d2 := deploy(e.Plan([]query.StreamID{0, 1, 2}, sink, engine.AlgoBottomUp))
	// Offered d2's S0⋈S1, this plan is cheaper without it: a reuse miss.
	if d3 := deploy(e.Plan([]query.StreamID{0, 1, 3}, sink, engine.AlgoTopDown)); d3.ReuseOffered == 0 || d3.Plan.DerivedLeaves() != 0 {
		t.Fatalf("%s (offered %d) is no reuse miss; pick another seed", d3.Plan, d3.ReuseOffered)
	}
	e.RT.RunFor(10)

	fresh, err := e.Replan(d2.Query)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Migrate(d2.Query.ID, fresh); err != nil {
		t.Fatal(err)
	}
	root := fresh.Loc
	for _, nb := range e.Graph.Neighbors(root) {
		cost, _ := e.Graph.LinkCost(root, nb)
		if err := e.UpdateLinkCosts(iflow.LinkCostUpdate{A: root, B: nb, Cost: cost * 10}); err != nil {
			t.Fatal(err)
		}
	}
	for v := netgraph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if !used[v] && v != root {
			if _, err := e.FailNode(v, e.Replan); err != nil {
				t.Fatal(err)
			}
			if err := e.RecoverNode(v); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	e.AttachController(adapt.DefaultConfig())
	e.RT.RunFor(30)
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
	// A histogram asked for under a layout other than its own is refused
	// and counted: the catalog's one error-path name.
	e.Obs.Histogram("paths.rows_recomputed", []float64{1})
	return e.Snapshot()
}

// catalogServer deploys and undeploys one statement through a server and
// returns its serving registry's snapshot and every shard's.
func catalogServer(t *testing.T) []obs.Snapshot {
	t.Helper()
	cfg := serve.DefaultConfig()
	cfg.Shards, cfg.Nodes, cfg.MaxCS, cfg.Streams = 2, 48, 16, 12
	srv, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	call := func(method, target, body string, v any) {
		t.Helper()
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
		if w.Code != 200 {
			t.Fatalf("%s %s: %d %s", method, target, w.Code, w.Body)
		}
		if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
			t.Fatal(err)
		}
	}
	var dep serve.DeployResponse
	call("POST", "/deploy", `{"cql": "SELECT * FROM stream-1, stream-4", "sink": 7}`, &dep)
	call("POST", fmt.Sprintf("/undeploy?id=%d", dep.ID), "", &map[string]any{})
	var snap struct {
		Serving obs.Snapshot   `json:"serving"`
		Shards  []obs.Snapshot `json:"shards"`
	}
	call("GET", "/snapshot", "", &snap)
	return append(snap.Shards, snap.Serving)
}

// catalogRow is one metric name of the catalog, as a pattern.
type catalogRow struct {
	name string
	re   *regexp.Regexp
}

// readCatalog parses the metric table of a markdown file. A row's first
// cell lists backquoted names separated by " / "; a name without a dot
// shares the row's first name's prefix; a span row names <name>.calls and
// <name>.seconds; <algo> and <fig> are placeholders.
func readCatalog(t *testing.T, path string) []catalogRow {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	quoted := regexp.MustCompile("`([^`]+)`")
	var rows []catalogRow
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "| Metric | Type |") {
			in = true
			continue
		}
		if !in || strings.HasPrefix(line, "|---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		var names []string
		for _, m := range quoted.FindAllStringSubmatch(cells[1], -1) {
			n := m[1]
			if len(names) > 0 && !strings.Contains(n, ".") {
				n = names[0][:strings.LastIndex(names[0], ".")+1] + n
			}
			names = append(names, n)
		}
		if strings.TrimSpace(cells[2]) == "span" {
			var spans []string
			for _, n := range names {
				spans = append(spans, n+".calls", n+".seconds")
			}
			names = spans
		}
		for _, n := range names {
			pat := regexp.QuoteMeta(n)
			pat = strings.NewReplacer("<algo>", "[a-z]+", "<fig>", "fig[0-9]+").Replace(pat)
			rows = append(rows, catalogRow{n, regexp.MustCompile("^" + pat + "$")})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatalf("%s has no metric catalog", path)
	}
	return rows
}
