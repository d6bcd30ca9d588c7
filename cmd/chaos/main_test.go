package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		adapt bool
		set   []string
		want  string // substring of the error; "" means accepted
	}{
		{false, nil, ""},
		{false, []string{"events", "migrate", "v", "seeds", "seed0", "flight-dir"}, ""},
		{false, []string{"strict"}, "-strict"},
		{true, nil, ""},
		{true, []string{"seeds", "seed0", "strict", "flight-dir"}, ""},
		{true, []string{"events"}, "-events"},
		{true, []string{"migrate"}, "-migrate"},
		{true, []string{"v"}, "-v"},
		{true, []string{"seeds", "migrate"}, "-migrate"},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		err := checkFlags(tc.adapt, set)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("adapt=%v %v: refused: %v", tc.adapt, tc.set, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("adapt=%v %v: error %v, want one naming %s", tc.adapt, tc.set, err, tc.want)
		}
	}
}
