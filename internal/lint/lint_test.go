package lint_test

import (
	"strings"
	"testing"

	"megaphone/internal/lint"
	"megaphone/internal/lint/linttest"
)

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, "testdata", lint.HotAlloc, "hotalloc")
}

func TestEnvRef(t *testing.T) {
	linttest.Run(t, "testdata", lint.EnvRef, "envref")
}

func TestAtomicField(t *testing.T) {
	linttest.Run(t, "testdata", lint.AtomicField, "atomicfield")
}

func TestSendUnderLock(t *testing.T) {
	linttest.Run(t, "testdata", lint.SendUnderLock, "sendunderlock")
}

func TestPointstamp(t *testing.T) {
	linttest.Run(t, "testdata", lint.Pointstamp, "pointstamp")
}

func TestUnreached(t *testing.T) {
	linttest.Run(t, "testdata", lint.Unreached, "unreached", "unreached/internal/lib")
}

// TestAllowMisuse pins the directive hygiene rules directly (the
// diagnostics anchor to the directive lines, which cannot also carry want
// comments): an allow without a justification or naming an unknown or
// missing analyzer is itself a finding, and an unjustified allow does not
// suppress.
func TestAllowMisuse(t *testing.T) {
	pkg, err := lint.LoadFixture("testdata", "allowmisuse")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := lint.Run(pkg, []*lint.Analyzer{lint.HotAlloc})
	wantSubstrings := []string{
		"megalint:allow hotalloc without a justification",
		`megalint:allow for unknown analyzer "nosuchanalyzer"`,
		"megalint:allow without an analyzer name",
		// The three make() calls are all still reported: none of the
		// malformed directives suppresses.
		"make allocates",
		"make allocates",
		"make allocates",
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	for _, want := range wantSubstrings {
		found := false
		for i, g := range got {
			if strings.Contains(g, want) {
				got = append(got[:i], got[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic containing %q (remaining: %v)", want, got)
		}
	}
	for _, g := range got {
		t.Errorf("unexpected diagnostic: %s", g)
	}
}
