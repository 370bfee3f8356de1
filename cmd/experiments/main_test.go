package main

import (
	"io"
	"strings"
	"testing"
)

// TestRunTable1 exercises the full driver on its fastest experiment (LoC
// counting — no dataflow), covering flag parsing, dispatch and printing.
func TestRunTable1(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "table1"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"TABLE1", "Native", "Megaphone"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunErrors: unknown experiments and flags are rejected.
func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig99"},
		{"-definitely-not-a-flag"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestOrderKey pins the experiment ordering of -exp all: table first, then
// figures in numeric order, then the new ablations.
func TestOrderKey(t *testing.T) {
	order := []string{"table1", "fig1", "fig5", "fig12", "fig20", "skew", "autoscale", "recovery"}
	for i := 1; i < len(order); i++ {
		if orderKey(order[i-1]) >= orderKey(order[i]) {
			t.Errorf("orderKey(%s)=%d not before orderKey(%s)=%d",
				order[i-1], orderKey(order[i-1]), order[i], orderKey(order[i]))
		}
	}
}
