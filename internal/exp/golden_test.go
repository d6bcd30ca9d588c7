package exp

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestFigAllGolden renders every figure at `smq -fig all -workloads 2
// -queries 6` and compares the text with the committed output byte for
// byte: the figures are the reproduction's result, so a refactor that
// bends any number in them has to show up as a diff to this file.
// Regenerate with
//
//	go run ./cmd/smq -fig all -workloads 2 -queries 6 > internal/exp/testdata/fig_all_w2_q6.golden
//
// only when the change in the figures is intended.
func TestFigAllGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig_all_w2_q6.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workloads, cfg.Queries = 2, 6
	var got bytes.Buffer
	for _, fig := range []func(Config) (*Figure, error){Fig2, Fig5, Fig6, Fig7, Fig8, Fig9, Fig10, Fig11} {
		f, err := fig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.Render(&got)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("figure output differs from testdata/fig_all_w2_q6.golden:\n%s", got.Bytes())
	}
}

// TestExperimentsTable runs every figure as `smq -fig all` does and checks
// that each number its notes print appears in that figure's row of the
// paper-vs-measured table in EXPERIMENTS.md, so the table cannot drift
// from the code. A note's "(paper: …)" remark quotes the paper, not a
// measurement, and is not checked. Fig 11's notes span two rows: the
// cost comparison and the Emulab cross-check.
func TestExperimentsTable(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{} // row label -> row text, U+2212 read as '-'
	for _, line := range strings.Split(strings.ReplaceAll(string(doc), "\u2212", "-"), "\n") {
		if label, ok := strings.CutPrefix(line, "| **"); ok {
			label, _, _ = strings.Cut(label, "**")
			rows[label] = line
		}
	}
	number := regexp.MustCompile(`-?\d+(?:\.\d+)?(?:e[+-]\d+)?`)
	paper := regexp.MustCompile(`\(paper[^)]*\)`)
	for _, fig := range []func(Config) (*Figure, error){Fig2, Fig5, Fig6, Fig7, Fig8, Fig9, Fig10, Fig11} {
		f, err := fig(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		label := "Fig " + strings.TrimPrefix(f.ID, "fig")
		row, ok := rows[label]
		if !ok {
			t.Errorf("EXPERIMENTS.md has no row for %s", label)
			continue
		}
		if f.ID == "fig11" {
			row += rows["Emulab cross-check"]
		}
		have := map[string]bool{}
		for _, n := range number.FindAllString(row, -1) {
			have[n] = true
		}
		for _, note := range f.Notes {
			for _, n := range number.FindAllString(paper.ReplaceAllString(note, ""), -1) {
				if !have[n] {
					t.Errorf("%s prints %s (%q), which its EXPERIMENTS.md row does not state", label, n, note)
				}
			}
		}
	}
}
