package megaphone_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCISteps keeps CI from running nothing: `go test -run X` passes when X
// matches no test, so a renamed test would leave its CI step green and
// empty. Every -run, -bench and -fuzz alternative of a `go test` command in
// the workflow, and every `FuzzX:./pkg` entry of its fuzz loop, must match
// a function of a _test.go file in a package the command names. `-run xxx`
// (run no test) and patterns holding a shell expansion are exempt.
func TestCISteps(t *testing.T) {
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	yml := strings.ReplaceAll(string(src), "\\\n", " ")
	checked := 0
	check := func(what, kinds, pattern string, pkgs []string) {
		checked++
		kind := regexp.MustCompile("^(" + kinds + ")")
		if re, err := regexp.Compile(pattern); err == nil {
			for _, pkg := range pkgs {
				for _, name := range testFuncs(pkg) {
					if kind.MatchString(name) && re.MatchString(name) {
						return
					}
				}
			}
		}
		t.Errorf("%s: %q matches no %s function in %v", what, pattern, kinds, pkgs)
	}
	for _, m := range regexp.MustCompile(`\b(Fuzz\w+):(\./[\w./-]*)`).FindAllStringSubmatch(yml, -1) {
		check("fuzz loop entry "+m[0], "Fuzz", "^"+m[1]+"$", []string{m[2]})
	}
	kinds := map[string]string{"-run": "Test|Fuzz|Example", "-bench": "Benchmark", "-fuzz": "Fuzz"}
	word := regexp.MustCompile(`'[^']*'|"[^"]*"|[;&|>]|[^\s;&|>'"]+`)
	for _, line := range strings.Split(yml, "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		var pkgs, pats []string
		words := word.FindAllString(cmd, -1)
		for i := 0; i < len(words) && !strings.ContainsAny(words[i][:1], ";&|>"); i++ {
			w := strings.Trim(words[i], `'"`)
			if strings.HasPrefix(w, ".") {
				pkgs = append(pkgs, w)
			} else if flag, val, eq := strings.Cut(w, "="); kinds[flag] != "" {
				if !eq && i+1 < len(words) {
					i++
					val = strings.Trim(words[i], `'"`)
				}
				if val != "xxx" && !strings.Contains(val, "$") {
					pats = append(pats, flag, val)
				}
			}
		}
		for i := 0; i < len(pats); i += 2 {
			for _, alt := range strings.Split(strings.SplitN(pats[i+1], "/", 2)[0], "|") {
				check("go test "+strings.TrimSpace(cmd), kinds[pats[i]], alt, pkgs)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no go test pattern or fuzz entry in the workflow")
	}
}

var funcDecl = regexp.MustCompile(`(?m)^func (\w+)`)

// testFuncs returns the top-level functions declared in the _test.go files
// of a package directory (a `./...` pattern is not resolved: it finds none).
func testFuncs(pkg string) []string {
	files, _ := filepath.Glob(filepath.Join(pkg, "*_test.go")) // the pattern is well-formed
	var names []string
	for _, f := range files {
		src, _ := os.ReadFile(f) // an unreadable file declares nothing: the check fails
		for _, m := range funcDecl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
	}
	return names
}
