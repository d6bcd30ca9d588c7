package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the contract lays it out.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json to the contract's limits and to
// the metric lists the harness reports from: a workload or metric named in
// one and not the other would be refused or silently missing.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", bf.RunSeconds)
	}
	if n := len(bf.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings", n)
	}

	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's charset", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, harness runs %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		checkName("workload", w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, harness runs %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, harness reports %d", len(bf.EndToEnd), len(endToEndSpecs))
	}
	for i, m := range bf.EndToEnd {
		checkName("metric", m.Name)
		s := endToEndSpecs[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || m.Bound != s.bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, m, s)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %q: unit %q bound %v outside the contract", m.Name, m.Unit, m.Bound)
		}
	}
	if s := endToEndSpecs[0]; s.name != "setup_s" || s.unit != "s" || s.better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", s)
	}
	if n := len(bf.PerLayer); n != len(layerSpecs) || n > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, harness reports %d, limit 128", n, len(layerSpecs))
	}
	for i, m := range bf.PerLayer {
		checkName("metric", m.Name)
		if s := layerSpecs[i]; m.Name != s.name || m.Unit != s.unit {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, m, s)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %q: unit %q better %q outside the contract", m.Name, m.Unit, m.Better)
		}
	}
}

// smokeOptions is the whole command at a hundredth of its counts.
func smokeOptions() options { return options{seed: 7, scale: 0.01} }

// TestSmoke runs every workload through both passes at -scale 0.01 and
// checks the report: every workload emits every end-to-end metric, nonzero,
// every emitted name is one BENCHMARK.json lists, every listed layer metric
// is emitted by some workload, every figure carries its sample count, and
// nothing failed.
func TestSmoke(t *testing.T) {
	o := smokeOptions()
	w := bufio.NewWriter(io.Discard)
	reports, seqs, err := runSets(w, o, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := reports[0]
	if rep.failed != 0 {
		t.Errorf("%d operations failed", rep.failed)
	}
	known := map[string]bool{}
	for _, s := range layerSpecs {
		known[s.name] = false
	}
	for _, name := range workloadNames {
		e2e := rep.e2e[name]
		for _, s := range endToEndSpecs {
			v, ok := e2e[s.name]
			if !ok || !(v.Value > 0) || v.N < 1 || v.Unit != s.unit {
				t.Errorf("%s: end-to-end %s = %+v (present %v)", name, s.name, v, ok)
			}
		}
		if len(e2e) != len(endToEndSpecs) {
			t.Errorf("%s: %d end-to-end metrics emitted, contract lists %d", name, len(e2e), len(endToEndSpecs))
		}
		layer := rep.layer[name]
		traced, _, err := tracedPass(name, o, seqs[name], 0, layer)
		if err != nil {
			t.Fatal(err)
		}
		if traced.attempted == 0 || traced.failed != 0 {
			t.Errorf("%s traced pass: %+v", name, traced)
		}
		for metric, v := range layer {
			if _, ok := known[metric]; !ok {
				t.Errorf("%s emits %s, which BENCHMARK.json does not list", name, metric)
			}
			known[metric] = true
			if v.N < 1 && v.Value != 0 {
				t.Errorf("%s: %s = %v carries no sample count", name, metric, v.Value)
			}
		}
		if name != adaptName {
			if v := layer["serve.twin_mismatches"]; v.Value != 0 || v.N == 0 {
				t.Errorf("%s: twin mismatches %+v", name, v)
			}
		}
	}
	for metric, emitted := range known {
		if !emitted {
			t.Errorf("no workload emits %s", metric)
		}
	}
}

// TestInputDeterminism pins the input contract: the request sequence is a
// function of the seed alone, and so is the plan cost it leads to.
func TestInputDeterminism(t *testing.T) {
	spec := servingSpecs[0]
	gen := func(seed int64) *sequence {
		seq, err := genSequence(spec, seed, 200)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	a, b, c := gen(7), gen(7), gen(8)
	if a.hash != b.hash {
		t.Errorf("seed 7 hashed to %x and %x", a.hash, b.hash)
	}
	if a.hash == c.hash {
		t.Errorf("seeds 7 and 8 both hashed to %x", a.hash)
	}
	cost := func(seq *sequence) float64 {
		r := newServingRun(spec, seq, 200, nil)
		if err := r.setup(); err != nil {
			t.Fatal(err)
		}
		r.round()
		r.checkEnd()
		r.teardown()
		if r.failed != 0 {
			t.Fatalf("%d operations failed: %v", r.failed, r.problems)
		}
		return r.costSum
	}
	if ca, cb := cost(a), cost(b); ca != cb {
		t.Errorf("seed 7 gave plan cost %v then %v", ca, cb)
	}
}
