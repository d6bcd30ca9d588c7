package exp

import (
	"bytes"
	"os"
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
