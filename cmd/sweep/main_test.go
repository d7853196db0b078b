package main

import (
	"testing"

	"rdramstream"
)

// TestParseMode pins -mode to rdsim's spellings: every one of them
// selects its controller, and anything else is an error rather than a
// silent SMC run.
func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want rdramstream.Controller
	}{
		{"smc", rdramstream.SMC},
		{"SMC", rdramstream.SMC},
		{"natural", rdramstream.NaturalOrder},
		{"natural-order", rdramstream.NaturalOrder},
		{"Natural-Order", rdramstream.NaturalOrder},
		{"cache", rdramstream.NaturalOrder},
	} {
		got, err := parseMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{"bogus", "", "natural order", "conventional"} {
		_, err := parseMode(in)
		if err == nil {
			t.Errorf("parseMode(%q) accepted a value rdsim rejects", in)
			continue
		}
		if want := `unknown mode "` + in + `" (want smc or natural)`; err.Error() != want {
			t.Errorf("parseMode(%q) error = %q, want %q", in, err, want)
		}
	}
}
