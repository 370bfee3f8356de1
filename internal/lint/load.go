package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path    string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	Program *Program // the whole program the package belongs to
}

// Program is every package one loader can see, type-checked on demand in
// one type universe: the whole-program view an analyzer like unreached
// needs. Test files are not part of it.
type Program struct {
	l *loader
	// paths lists the program's packages; benchPkgs marks those of the
	// benchmark module, every declaration of which counts as used.
	paths     []string
	benchPkgs map[string]bool
	reach     *reacher // memoized by reachable
}

// packages type-checks and returns every package of the program.
func (p *Program) packages() ([]*Package, error) {
	var out []*Package
	for _, path := range p.paths {
		pkg, err := p.l.load(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// listedPkg is the slice of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
}

// loader type-checks module packages on demand, memoizing results so shared
// dependencies are checked once. Imports outside the module (the standard
// library — the module has no external dependencies) resolve through the
// compiler's source importer, which needs no installed export data.
type loader struct {
	fset  *token.FileSet
	index map[string]*listedPkg // module import path -> metadata
	done  map[string]*Package   // module import path -> loaded package
	std   types.ImporterFrom
	prog  *Program
}

func newLoader() *loader {
	fset := token.NewFileSet()
	l := &loader{
		fset:  fset,
		index: make(map[string]*listedPkg),
		done:  make(map[string]*Package),
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	l.prog = &Program{l: l, benchPkgs: make(map[string]bool)}
	return l
}

// Import implements types.Importer over the loader's two-tier resolution.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.index[path]; ok {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, "", 0)
}

func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.done[path]; ok {
		return pkg, nil
	}
	meta, ok := l.index[path]
	if !ok {
		return nil, fmt.Errorf("lint: package %s not in module index", path)
	}
	var files []*ast.File
	for _, name := range meta.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(meta.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	cfg := types.Config{Importer: l}
	tpkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info, Program: l.prog}
	l.done[path] = pkg
	return pkg, nil
}

// benchDir is the benchmark module nested in the module root. It builds
// against this module through a replace directive, so one go list run from
// it sees both modules, and what it uses counts as used (see Unreached).
const benchDir = "bench"

// Load type-checks the module packages matching the go list patterns,
// resolved relative to dir (any directory inside the module). Packages are
// returned in import-path order. Their Program is the whole module plus the
// benchmark module, if the module root holds one.
func Load(dir string, patterns ...string) ([]*Package, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Path}}\n{{.Dir}}")
	cmd.Dir = dir
	mod, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list -m: %w", err)
	}
	modPath, root, _ := strings.Cut(strings.TrimSpace(string(mod)), "\n")

	// Index every package of the program so imports among them resolve
	// from source, then expand the requested patterns against the index.
	l := newLoader()
	bench := filepath.Join(root, benchDir)
	listDir, listPatterns := root, []string{"./..."}
	if _, err := os.Stat(filepath.Join(bench, "go.mod")); err == nil {
		listDir, listPatterns = bench, []string{"./...", modPath + "/..."}
	}
	all, err := goList(listDir, listPatterns...)
	if err != nil {
		return nil, err
	}
	for _, p := range all {
		l.index[p.ImportPath] = p
		if len(p.GoFiles) > 0 {
			l.prog.paths = append(l.prog.paths, p.ImportPath)
		}
		if strings.HasPrefix(p.Dir, bench+string(filepath.Separator)) {
			l.prog.benchPkgs[p.ImportPath] = true
		}
	}
	matched, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}

	var out []*Package
	for _, m := range matched {
		if _, ok := l.index[m.ImportPath]; !ok {
			continue // outside the module (e.g. a std pattern); not analyzable
		}
		if len(m.GoFiles) == 0 {
			continue
		}
		pkg, err := l.load(m.ImportPath)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

func goList(dir string, patterns ...string) ([]*listedPkg, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,Name,GoFiles"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %w", strings.Join(patterns, " "), err)
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// LoadFixture type-checks one package from a testdata source tree laid out
// analysistest-style: root/src/<importpath>/*.go. Fixture packages may
// import each other and the standard library; _test.go files are left out.
// The package's Program is the fixture tree under the first element of
// path.
//
//megalint:allow unreached test support: the golden-fixture tests of every analyzer load through it
func LoadFixture(root, path string) (*Package, error) {
	l := newLoader()
	src := filepath.Join(root, "src")
	entries, err := os.ReadDir(src)
	if err != nil {
		return nil, err
	}
	var walk func(prefix string, entries []os.DirEntry) error
	walk = func(prefix string, ents []os.DirEntry) error {
		for _, e := range ents {
			if !e.IsDir() {
				continue
			}
			ip := e.Name()
			if prefix != "" {
				ip = prefix + "/" + e.Name()
			}
			dir := filepath.Join(src, filepath.FromSlash(ip))
			names, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil {
				return err
			}
			if len(names) > 0 {
				var files []string // go list leaves _test.go files out of GoFiles too
				for _, n := range names {
					if !strings.HasSuffix(n, "_test.go") {
						files = append(files, filepath.Base(n))
					}
				}
				sort.Strings(files)
				l.index[ip] = &listedPkg{ImportPath: ip, Dir: dir, GoFiles: files}
			}
			sub, err := os.ReadDir(dir)
			if err != nil {
				return err
			}
			if err := walk(ip, sub); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk("", entries); err != nil {
		return nil, err
	}
	tree, _, _ := strings.Cut(path, "/")
	for ip, meta := range l.index {
		if first, _, _ := strings.Cut(ip, "/"); first == tree && len(meta.GoFiles) > 0 {
			l.prog.paths = append(l.prog.paths, ip)
		}
	}
	sort.Strings(l.prog.paths)
	return l.load(path)
}
