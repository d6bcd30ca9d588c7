package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of the error; "" means accepted
	}{
		{"", ""},
		{"-events 10 -migrate -v -seeds 2 -seed0 3 -flight-dir x", ""},
		{"-strict", "-strict"},
		{"-strict=false", ""},
		{"-adapt=false -strict", "-strict"},
		{"-adapt", ""},
		{"-adapt -seeds 2 -seed0 3 -strict -flight-dir x", ""},
		{"-adapt -events 10", "-events"},
		{"-adapt -events 200", "-events"}, // the default, but asked for
		{"-adapt -migrate", "-migrate"},
		{"-adapt -migrate=false", ""},
		{"-adapt -v", "-v"},
		{"-adapt -v=false", ""},
		{"-adapt -seeds 2 -migrate", "-migrate"},
	} {
		fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o := defineFlags(fs)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		err := checkFlags(fs, o)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: refused: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q: error %v, want one naming %s", tc.args, err, tc.want)
		}
	}
}
