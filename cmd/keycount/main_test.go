package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

// TestRunTiny drives the whole binary end to end at a 50ms duration: flag
// parsing, dataflow construction, scripted migration, and report printing.
func TestRunTiny(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-duration", "50ms", "-rate", "2000", "-workers", "2",
		"-bins", "4", "-domain", "1024", "-migrate-at", "10ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# keycount", "time[s]", "# records="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunTinyAuto covers the auto-controller and workload paths.
func TestRunTinyAuto(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-duration", "50ms", "-rate", "2000", "-workers", "2",
		"-bins", "4", "-domain", "1024", "-migrate-at", "0",
		"-auto", "load-balance", "-workload", "zipf:1.3",
		"-variant", "key", "-service", (50 * time.Microsecond).String(),
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# applied records per worker:") {
		t.Errorf("auto mode did not report worker loads:\n%s", out.String())
	}
}

// TestRunTinyCheckpointRecover drives the checkpoint flags end to end: a
// short checkpointing run, then a -recover run resuming from its newest
// epoch.
func TestRunTinyCheckpointRecover(t *testing.T) {
	dir := t.TempDir()
	common := []string{
		"-duration", "120ms", "-rate", "2000", "-workers", "2",
		"-bins", "4", "-domain", "1024", "-migrate-at", "0",
		"-checkpoint-dir", dir, "-checkpoint-every", "40ms",
	}
	var out strings.Builder
	if err := run(common, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# checkpoint epoch=") {
		t.Fatalf("checkpointing run reported no checkpoints:\n%s", out.String())
	}
	out.Reset()
	if err := run(append(common, "-recover"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# recovered from checkpoint epoch") {
		t.Fatalf("recovery run did not report restoring:\n%s", out.String())
	}
}

// TestRunFlagErrors: bad flags and bad enum values fail with errors rather
// than running.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-variant", "nope"},
		{"-strategy", "nope"},
		{"-workload", "nope"},
		{"-auto", "nope"},
		{"-recover"}, // -recover without -checkpoint-dir
		{"-checkpoint-dir", "/tmp/x", "-variant", "native-hash"},
		{"-bins", "40"},
		{"-bins", "-3"},
		{"-bins", "0"},
		{"-domain", "0"},
		{"-domain", "-5"},
		{"-variant", "key", "-domain", "1000"},
		{"-duration", "0s"},
		{"-duration", "-1s"},
		{"-rate", "-5"},
		{"-workers", "-1"},
		{"-workers", "0"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
