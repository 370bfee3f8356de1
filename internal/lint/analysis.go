// Package lint is megaphone's in-tree static-analysis framework: a small,
// dependency-free twin of golang.org/x/tools/go/analysis (the container
// this repo builds in has no module proxy, so the real thing cannot be
// vendored) carrying the project-specific analyzers that prove the
// runtime's concurrency and hot-path invariants at compile time.
//
// The API mirrors go/analysis closely enough that the analyzers would port
// to a x/tools multichecker by swapping the import: an Analyzer has a name,
// a doc string, and a Run function over a Pass; Run reports Diagnostics at
// token positions. Golden-file tests use linttest, which understands the
// same `// want "regexp"` comment convention as analysistest.
//
// Two comment contracts thread through every analyzer:
//
//	//megalint:hotpath
//	    placed in a function's doc comment, declares the function part of
//	    the exchange/apply hot path: the hotalloc analyzer proves it free
//	    of allocating constructs (the static twin of the allocs/op
//	    benchmark pins).
//
//	//megalint:allow <analyzer> <justification>
//	    suppresses <analyzer>'s diagnostics on the line the comment trails
//	    or the line immediately below it; placed in a function's doc
//	    comment it suppresses for the whole function. The justification is
//	    mandatory — an allow without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, anchored at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Program  *Program // the whole program, for checks that span packages

	diags []Diagnostic
	allow map[string][]allowRange // filename -> suppressed line ranges
}

// allowRange is one //megalint:allow directive's reach within a file.
type allowRange struct {
	analyzer  string // "" = malformed (missing analyzer name)
	justified bool
	from, to  int       // line range, inclusive
	pos       token.Pos // the directive's own position, for reporting
}

// Reportf records a diagnostic unless an allow directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, r := range p.allow[position.Filename] {
		if r.analyzer == p.Analyzer.Name && r.justified && position.Line >= r.from && position.Line <= r.to {
			return
		}
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

const (
	hotpathDirective = "//megalint:hotpath"
	allowDirective   = "//megalint:allow"
)

// Hotpath reports whether the function declaration is annotated
// //megalint:hotpath in its doc comment.
func Hotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotpathDirective {
			return true
		}
	}
	return false
}

// indexAllows builds the per-file suppression index for one analyzer pass.
// A trailing directive covers its own line; a directive on its own line
// covers itself and the next line; a directive inside a function's doc
// comment covers the whole function body.
func (p *Pass) indexAllows() {
	p.allow = make(map[string][]allowRange)
	for _, f := range p.Files {
		fname := p.Fset.Position(f.Pos()).Filename

		// Doc-comment directives: map each to the enclosing declaration.
		docOf := make(map[*ast.CommentGroup]ast.Node)
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Doc != nil {
					docOf[d.Doc] = d
				}
			case *ast.GenDecl:
				if d.Doc != nil {
					docOf[d.Doc] = d
				}
			}
		}

		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, justified, ok := parseAllow(c)
				if !ok {
					continue
				}
				r := allowRange{analyzer: name, justified: justified, pos: c.Pos()}
				if decl, ok := docOf[cg]; ok {
					r.from = p.Fset.Position(decl.Pos()).Line
					r.to = p.Fset.Position(decl.End()).Line
				} else {
					line := p.Fset.Position(c.Pos()).Line
					r.from = line
					r.to = line + 1
				}
				p.allow[fname] = append(p.allow[fname], r)
			}
		}
	}
}

// parseAllow splits a //megalint:allow directive into the analyzer it
// names and whether a justification follows; ok is false for any other
// comment.
func parseAllow(c *ast.Comment) (analyzer string, justified, ok bool) {
	text := strings.TrimSpace(c.Text)
	if !strings.HasPrefix(text, allowDirective) {
		return "", false, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, allowDirective))
	name, justification, _ := strings.Cut(rest, " ")
	return name, strings.TrimSpace(justification) != "", true
}

// docAllows reports whether a doc comment carries a justified allow
// directive for the analyzer.
func docAllows(doc *ast.CommentGroup, analyzer string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if name, justified, _ := parseAllow(c); name == analyzer && justified {
			return true
		}
	}
	return false
}

// checkAllows reports malformed allow directives (no analyzer name or no
// justification) so suppressions cannot silently rot. Run once per package
// by the driver, under the analyzer name "megalint".
func checkAllows(pass *Pass, known map[string]bool) {
	for _, ranges := range pass.allow {
		for _, r := range ranges {
			switch {
			case r.analyzer == "":
				pass.diags = append(pass.diags, Diagnostic{
					Pos:      r.pos,
					Message:  "megalint:allow without an analyzer name",
					Analyzer: "megalint",
				})
			case !known[r.analyzer]:
				pass.diags = append(pass.diags, Diagnostic{
					Pos:      r.pos,
					Message:  fmt.Sprintf("megalint:allow for unknown analyzer %q", r.analyzer),
					Analyzer: "megalint",
				})
			case !r.justified:
				pass.diags = append(pass.diags, Diagnostic{
					Pos:      r.pos,
					Message:  fmt.Sprintf("megalint:allow %s without a justification", r.analyzer),
					Analyzer: "megalint",
				})
			}
		}
	}
}

// Run applies the analyzers to the package and returns their diagnostics
// sorted by position. Malformed allow directives are reported alongside.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for i, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Program:  pkg.Program,
		}
		pass.indexAllows()
		if i == 0 {
			checkAllows(pass, known)
		}
		if err := a.Run(pass); err != nil {
			pass.diags = append(pass.diags, Diagnostic{
				Pos:      token.NoPos,
				Message:  fmt.Sprintf("analyzer failed: %v", err),
				Analyzer: a.Name,
			})
		}
		out = append(out, pass.diags...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return out
}

// All returns the full megalint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		HotAlloc,
		EnvRef,
		AtomicField,
		SendUnderLock,
		Pointstamp,
		Unreached,
	}
}
