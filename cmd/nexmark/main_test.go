package main

import (
	"io"
	"strings"
	"testing"
)

// TestRunTiny drives one stateless and one stateful query end to end at a
// 50ms duration.
func TestRunTiny(t *testing.T) {
	for _, q := range []string{"q1", "q4"} {
		var out strings.Builder
		err := run([]string{
			"-query", q, "-duration", "50ms", "-rate", "2000",
			"-workers", "2", "-bins", "4", "-migrate-at", "10ms",
		}, &out)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for _, want := range []string{"# nexmark " + q, "time[s]", "# records="} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s output missing %q:\n%s", q, want, out.String())
			}
		}
	}
}

// TestRunTinyAutoSkew covers the auto-controller path with a shifting hot
// auction.
func TestRunTinyAutoSkew(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-query", "q4", "-duration", "50ms", "-rate", "2000",
		"-workers", "2", "-bins", "4", "-migrate-at", "0",
		"-auto", "load-balance", "-hot-ratio", "2", "-hot-shift-every", "20",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# records=") {
		t.Errorf("missing summary:\n%s", out.String())
	}
}

// TestRunFlagErrors: invalid flags and enums error out.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-strategy", "nope"},
		{"-auto", "nope"},
		{"-bins", "40"},
		{"-bins", "-2"},
		{"-duration", "0s"},
		{"-duration", "-1s"},
		{"-rate", "-5"},
		{"-workers", "-1"},
		{"-workers", "0"},
		{"-query", "q9"},
		{"-impl", "bogus"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
