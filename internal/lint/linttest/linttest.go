// Package linttest runs megalint analyzers against golden-file fixture
// packages, mirroring golang.org/x/tools/go/analysis/analysistest: fixture
// sources live under testdata/src/<importpath>/, and every line expected to
// produce a diagnostic carries a trailing comment of the form
//
//	// want "regexp"
//
// (multiple quoted regexps when one line yields several diagnostics), or
// the block form /* want "regexp" */ where the line's own line comment is
// the subject, as for a malformed //megalint:allow.
// Diagnostics with no matching want, and wants with no matching
// diagnostic, fail the test.
package linttest

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"megaphone/internal/lint"
)

// Run loads each fixture package and checks the analyzer's diagnostics
// against the // want comments in its sources.
//
//megalint:allow unreached test support: the golden-fixture tests of every megalint analyzer
func Run(t *testing.T, testdata string, a *lint.Analyzer, paths ...string) {
	t.Helper()
	for _, path := range paths {
		pkg, err := lint.LoadFixture(testdata, path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		diags := lint.Run(pkg, []*lint.Analyzer{a})
		checkWants(t, pkg, path, diags)
	}
}

// want is one expectation: a regexp anchored to a file line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

func checkWants(t *testing.T, pkg *lint.Package, path string, diags []lint.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		fname := pkg.Fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants = append(wants, parseWants(t, fname, pkg.Fset, c)...)
			}
		}
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic at %s:%d: [%s] %s", path, pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: expected diagnostic matching %q at %s:%d, got none", path, w.raw, w.file, w.line)
		}
	}
}

// parseWants extracts the quoted regexps of one // want comment.
func parseWants(t *testing.T, fname string, fset *token.FileSet, c *ast.Comment) []*want {
	t.Helper()
	text := strings.TrimSpace(c.Text)
	if body, ok := strings.CutPrefix(text, "/*"); ok {
		text = strings.TrimSuffix(body, "*/")
	} else {
		text = strings.TrimPrefix(text, "//")
	}
	rest, ok := strings.CutPrefix(strings.TrimSpace(text), "want ")
	if !ok {
		return nil
	}
	line := fset.Position(c.Pos()).Line
	var out []*want
	rest = strings.TrimSpace(rest)
	for rest != "" {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			t.Fatalf("%s:%d: malformed want comment %q: %v", fname, line, c.Text, err)
		}
		raw, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s:%d: malformed want pattern %q: %v", fname, line, q, err)
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			t.Fatalf("%s:%d: bad want regexp %q: %v", fname, line, raw, err)
		}
		out = append(out, &want{file: fname, line: line, re: re, raw: raw})
		rest = strings.TrimSpace(rest[len(q):])
	}
	return out
}
