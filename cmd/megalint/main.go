// Command megalint is the project's multichecker: it runs the internal/lint
// analyzer suite — the static proofs of the runtime's concurrency and
// hot-path invariants, and the whole-program unreached check (declarations
// only tests use, exported fields no running code sets) — over the
// module's packages and exits non-zero on any finding. It is part of
// scripts/lint.sh alongside gofmt and go vet.
//
// Usage:
//
//	megalint [-only name[,name]] [-list] [packages]
//
// Packages default to ./... resolved from the current directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"megaphone/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("megalint", flag.ContinueOnError)
	fs.SetOutput(out)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	dir := fs.String("C", ".", "directory to resolve package patterns from")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(out, "megalint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(out, "megalint: %v\n", err)
		return 2
	}

	findings := 0
	for _, pkg := range pkgs {
		for _, d := range lint.Run(pkg, analyzers) {
			findings++
			if d.Pos.IsValid() {
				fmt.Fprintf(out, "%s: [%s] %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
			} else {
				fmt.Fprintf(out, "[%s] %s\n", d.Analyzer, d.Message)
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(out, "megalint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}
