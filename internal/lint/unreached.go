package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Unreached reports the functions, methods and types declared under
// internal/ that no running code can reach: a declaration only its own
// tests call is weight the library carries for nothing. Unlike the other
// analyzers it judges one package against the whole program (pass.Program).
//
// Roots: the main function of every main package, every declaration of
// the benchmark module (whatever bench/ names counts as used), and every
// package's init functions and package-level variable declarations. From
// the roots the analyzer follows types.Info.Uses — identifiers, and the
// selected field or method of every selector — through each reached
// declaration until nothing new turns up. An instantiated generic counts as
// its origin. A method nothing names is reached still when its receiver
// type is reached and some interface the program uses (one named or
// written in reached code, or any interface the standard library
// declares) has a method of that name and signature, since a dynamic call
// may land on it. Test files are not loaded, so their uses do not count.
//
// Test support other packages' tests share is kept with
// //megalint:allow unreached <which tests rely on it> in its doc comment.
// A declaration so marked counts as a root, so what it calls is kept with
// it, and a type so marked keeps its methods.
var Unreached = &Analyzer{
	Name: unreachedName,
	Doc:  "functions, methods and types under internal/ must be reachable from a main package, bench/ or an initializer",
	Run:  runUnreached,
}

const unreachedName = "unreached"

func runUnreached(pass *Pass) error {
	if !internalPath(pass.Pkg.Path()) {
		return nil
	}
	reached, err := pass.Program.reachable()
	if err != nil {
		return err
	}
	report := func(id *ast.Ident, kind, qual string) {
		if obj := pass.Info.Defs[id]; obj != nil && id.Name != "_" && !reached[obj] {
			pass.Reportf(id.Pos(), "%s %s.%s%s is unreached: nothing outside tests uses it", kind, pass.Pkg.Name(), qual, id.Name)
		}
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv == nil && d.Name.Name == "init":
				case d.Recv == nil:
					report(d.Name, "func", "")
				default:
					report(d.Name, "method", recvName(d.Recv.List[0].Type)+".")
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						report(ts.Name, "type", "")
					}
				}
			}
		}
	}
	return nil
}

// internalPath reports whether an import path lies under an internal/
// directory.
func internalPath(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}

// recvName is the receiver's base type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// reacher is one reachability computation over a program.
type reacher struct {
	decls   map[types.Object]declSite
	reached map[types.Object]bool
	queue   []types.Object
	named   []*types.Named                // reached defined types, for method matching
	ifaces  map[*types.Interface]bool     // interfaces the program uses
	methods map[string][]*types.Signature // their methods, by name
}

// declSite is where a package-level object or method is declared.
type declSite struct {
	info *types.Info
	node ast.Node
}

// reachable computes, once per program, the set of declarations reached
// from the roots.
func (p *Program) reachable() (map[types.Object]bool, error) {
	if p.reached != nil {
		return p.reached, nil
	}
	pkgs, err := p.packages()
	if err != nil {
		return nil, err
	}
	r := &reacher{
		decls:   make(map[types.Object]declSite),
		reached: make(map[types.Object]bool),
		ifaces:  make(map[*types.Interface]bool),
		methods: make(map[string][]*types.Signature),
	}
	var roots []declSite
	var keptTypes []*types.Named
	for _, pkg := range pkgs {
		bench := p.benchPkgs[pkg.Path]
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					site := declSite{pkg.Info, d}
					if obj := pkg.Info.Defs[d.Name]; obj != nil {
						r.decls[obj] = site
					}
					entry := d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main")
					if bench || entry || docAllows(d.Doc, unreachedName) {
						roots = append(roots, site)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						site := declSite{pkg.Info, s}
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, id := range names {
							if obj := pkg.Info.Defs[id]; obj != nil {
								r.decls[obj] = site
							}
						}
						ts, _ := s.(*ast.TypeSpec)
						kept := ts != nil && (docAllows(d.Doc, unreachedName) || docAllows(ts.Doc, unreachedName))
						if kept {
							if named, ok := pkg.Info.Defs[ts.Name].Type().(*types.Named); ok {
								keptTypes = append(keptTypes, named)
							}
						}
						if bench || kept || d.Tok == token.VAR {
							roots = append(roots, site)
						}
					}
				}
			}
		}
	}
	r.stdInterfaces(pkgs)
	for _, site := range roots {
		r.walk(site)
	}
	for _, named := range keptTypes {
		for i := 0; i < named.NumMethods(); i++ {
			r.use(named.Method(i))
		}
	}
	for {
		r.drain()
		if !r.matchMethods() {
			break
		}
	}
	p.reached = r.reached
	return p.reached, nil
}

// walk marks everything a declaration uses.
func (r *reacher) walk(site declSite) {
	ast.Inspect(site.node, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := site.info.Types[e]; ok {
				r.useInterface(tv.Type)
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := site.info.Uses[id]; obj != nil {
				r.use(obj)
			}
		}
		return true
	})
}

// use marks one used object, normalizing instantiations to their origin.
func (r *reacher) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		if o.IsField() {
			return // fields are reached with the struct type declaring them
		}
		obj = o.Origin()
	case *types.TypeName:
		r.useInterface(o.Type())
	}
	if _, ok := r.decls[obj]; !ok || r.reached[obj] {
		return
	}
	r.reached[obj] = true
	r.queue = append(r.queue, obj)
}

// drain walks the declarations of newly reached objects until none are left.
func (r *reacher) drain() {
	for len(r.queue) > 0 {
		obj := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				r.named = append(r.named, named)
			}
		}
		r.walk(r.decls[obj])
	}
}

// matchMethods reaches the methods of reached types that satisfy a method
// of a used interface, and reports whether it found any new one.
func (r *reacher) matchMethods() bool {
	found := false
	for _, named := range r.named {
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if r.reached[m] {
				continue
			}
			sig := m.Type().(*types.Signature)
			for _, want := range r.methods[m.Name()] {
				if types.Identical(sig, want) {
					r.use(m)
					found = true
					break
				}
			}
		}
	}
	return found
}

// useInterface records the methods of t if it is an interface.
func (r *reacher) useInterface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || r.ifaces[it] {
		return
	}
	r.ifaces[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		r.methods[m.Name()] = append(r.methods[m.Name()], m.Type().(*types.Signature))
	}
}

// stdInterfaces records every interface declared at package level in the
// standard library packages the program imports, directly or not: the
// library calls through them (fmt.Stringer, encoding.BinaryMarshaler,
// sort.Interface) where the program's own sources never name them.
func (r *reacher) stdInterfaces(pkgs []*Package) {
	inProgram := make(map[*types.Package]bool, len(pkgs))
	for _, pkg := range pkgs {
		inProgram[pkg.Types] = true
	}
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !inProgram[p] {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					r.useInterface(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
}
