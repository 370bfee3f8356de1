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
// An exported field of a struct type declared under internal/ is reported
// when no reached code sets it: a knob only tests turn is a constant. Reached
// code sets a field when it assigns it (=, op=, ++, --) or an element of it,
// takes its address or calls a pointer method on it, gives it a value in a
// composite literal, or converts a pointer to its struct to an interface
// (a reflection decoder such as json.Unmarshal may set any field). Two
// stores do not count by themselves. A default, a constant stored inside an
// if whose condition reads the same field, does not count at all. A copy,
// another field's value stored through conversions, counts only if that
// field is set, resolved to a fixpoint. Unexported fields are out of scope:
// mutexes and atomics are used through methods, never stored.
//
// Test support other packages' tests share is kept with
// //megalint:allow unreached <which tests rely on it> in its doc comment.
// A declaration so marked counts as a root, so what it calls is kept with
// it, and a type so marked keeps its methods and fields. A field whose own
// doc comment is so marked is exempt, and counts as set for copies.
var Unreached = &Analyzer{
	Name: unreachedName,
	Doc:  "functions, methods and types under internal/ must be reachable from a main package, bench/ or an initializer, and their exported fields set",
	Run:  runUnreached,
}

const unreachedName = "unreached"

func runUnreached(pass *Pass) error {
	if !internalPath(pass.Pkg.Path()) {
		return nil
	}
	r, err := pass.Program.reachable()
	if err != nil {
		return err
	}
	report := func(id *ast.Ident, kind, qual string) {
		if obj := pass.Info.Defs[id]; obj != nil && id.Name != "_" && !r.reached[obj] {
			pass.Reportf(id.Pos(), "%s %s.%s%s is unreached: nothing outside tests uses it", kind, pass.Pkg.Name(), qual, id.Name)
		}
	}
	reportFields := func(ts *ast.TypeSpec) {
		st, ok := ts.Type.(*ast.StructType)
		if !ok || ts.Assign != 0 || !r.reached[pass.Info.Defs[ts.Name]] {
			return
		}
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				if v, ok := pass.Info.Defs[id].(*types.Var); ok && id.IsExported() && !r.set[v] {
					pass.Reportf(id.Pos(), "field %s.%s.%s is never set: nothing outside tests gives it a value", pass.Pkg.Name(), ts.Name.Name, id.Name)
				}
			}
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
						reportFields(ts)
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
	set     map[*types.Var]bool           // fields reached code sets (see Unreached)
	copies  map[*types.Var][]*types.Var   // field -> fields whose values reached code stores in it
}

// declSite is where a package-level object or method is declared.
type declSite struct {
	info *types.Info
	node ast.Node
}

// reachable computes, once per program, the set of declarations reached
// from the roots and the fields they set.
func (p *Program) reachable() (*reacher, error) {
	if p.reach != nil {
		return p.reach, nil
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
		set:     make(map[*types.Var]bool),
		copies:  make(map[*types.Var][]*types.Var),
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
						if ts != nil && !kept {
							r.exemptFields(pkg.Info, ts)
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
	keptStructs := make(map[*types.Struct]bool)
	for _, named := range keptTypes {
		for i := 0; i < named.NumMethods(); i++ {
			r.use(named.Method(i))
		}
		r.keepFields(named, keptStructs)
	}
	for {
		r.drain()
		if !r.matchMethods() {
			break
		}
	}
	r.resolveCopies()
	p.reach = r
	return r, nil
}

// walk marks everything a declaration uses, and records the fields it
// stores into.
func (r *reacher) walk(site declSite) {
	var stack []ast.Node // n's ancestors
	ast.Inspect(site.node, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
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
		r.stores(site.info, n, stack)
		stack = append(stack, n)
		return true
	})
}

// stores records the fields node n sets or copies into.
func (r *reacher) stores(info *types.Info, n ast.Node, stack []ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			var val ast.Expr // nil: the stored value is not one expression's
			if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
				val = n.Rhs[i]
			}
			r.store(info, lhs, val, stack)
		}
	case *ast.IncDecStmt:
		r.store(info, n.X, nil, stack)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			r.store(info, n.X, nil, stack)
		}
	case *ast.SelectorExpr:
		// A pointer method called on a value takes its address.
		if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal && !isPointer(sel.Recv()) {
			if recv := sel.Obj().Type().(*types.Signature).Recv(); recv != nil && isPointer(recv.Type()) {
				r.store(info, n.X, nil, stack)
			}
		}
	case *ast.CompositeLit:
		t := info.Types[n].Type
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
					r.storeField(info, f, kv.Value, stack)
				}
			} else {
				r.storeField(info, st.Field(i), e, stack)
			}
		}
	case *ast.CallExpr:
		// A pointer to a struct passed as an empty interface may reach a
		// reflection decoder, which can set any of its fields.
		fun := info.Types[n.Fun]
		if fun.IsType() {
			if len(n.Args) == 1 && isEmptyInterface(fun.Type) {
				r.setAll(info.Types[n.Args[0]].Type)
			}
			return
		}
		sig, ok := fun.Type.Underlying().(*types.Signature)
		if !ok {
			return
		}
		params := sig.Params()
		for i, arg := range n.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1 && !n.Ellipsis.IsValid():
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			case i < params.Len():
				pt = params.At(i).Type()
			}
			if pt != nil && isEmptyInterface(pt) {
				r.setAll(info.Types[arg].Type)
			}
		}
	}
}

// store records a store of val (nil when the value is not one expression)
// into the field that target selects, if any. A store into an element of a
// field, or into a field of a struct-valued field, sets the enclosing field.
func (r *reacher) store(info *types.Info, target, val ast.Expr, stack []ast.Node) {
	for {
		switch x := target.(type) {
		case *ast.ParenExpr:
			target = x.X
		case *ast.IndexExpr:
			target, val = x.X, nil
		case *ast.SelectorExpr:
			f := selectedField(info, x)
			if f == nil {
				return
			}
			r.storeField(info, f, val, stack)
			if isPointer(info.Types[x.X].Type) {
				return
			}
			target, val = x.X, nil
		default:
			return
		}
	}
}

// storeField records a store of val (nil: an opaque value) into field f.
func (r *reacher) storeField(info *types.Info, f *types.Var, val ast.Expr, stack []ast.Node) {
	f = f.Origin()
	if val != nil {
		if src := copiedField(info, val); src != nil {
			if src.Exported() && internalPath(src.Pkg().Path()) {
				r.copies[f] = append(r.copies[f], src)
				return
			}
		} else if info.Types[val].Value != nil && defaulted(info, f, stack) {
			return
		}
	}
	r.set[f] = true
}

// defaulted reports whether a store sits inside an if whose condition reads
// field f: the store gives f a default, not a value.
func defaulted(info *types.Info, f *types.Var, stack []ast.Node) bool {
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		reads := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && selectedField(info, sel) == f {
				reads = true
			}
			return !reads
		})
		if reads {
			return true
		}
	}
	return false
}

// copiedField is the field whose value e is, through parentheses and
// conversions, or nil.
func copiedField(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			if len(x.Args) != 1 || !info.Types[x.Fun].IsType() {
				return nil
			}
			e = x.Args[0]
		case *ast.SelectorExpr:
			return selectedField(info, x)
		default:
			return nil
		}
	}
}

// selectedField is the field a selector selects, normalized to its origin,
// or nil.
func selectedField(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		return s.Obj().(*types.Var).Origin()
	}
	return nil
}

// setAll sets every field of the struct t points to, if it is a pointer to
// a struct.
func (r *reacher) setAll(t types.Type) {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return
	}
	if st, ok := p.Elem().Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			r.set[st.Field(i).Origin()] = true
		}
	}
}

// exemptFields counts as set each field of a struct type spec whose doc
// comment carries an allow.
func (r *reacher) exemptFields(info *types.Info, ts *ast.TypeSpec) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, f := range st.Fields.List {
		if docAllows(f.Doc, unreachedName) {
			for _, id := range f.Names {
				if v, ok := info.Defs[id].(*types.Var); ok {
					r.set[v] = true
				}
			}
		}
	}
}

// keepFields counts as set every field of a kept type, and of the struct
// types its fields hold: test support is configured by its tests.
func (r *reacher) keepFields(t types.Type, seen map[*types.Struct]bool) {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			st, ok := t.Underlying().(*types.Struct)
			if !ok || seen[st] {
				return
			}
			seen[st] = true
			for i := 0; i < st.NumFields(); i++ {
				r.set[st.Field(i)] = true
				r.keepFields(st.Field(i).Type(), seen)
			}
			return
		}
	}
}

// resolveCopies sets, to a fixpoint, every field a set field was copied
// into.
func (r *reacher) resolveCopies() {
	for changed := true; changed; {
		changed = false
		for dst, srcs := range r.copies {
			for _, src := range srcs {
				if r.set[src] && !r.set[dst] {
					r.set[dst] = true
					changed = true
				}
			}
		}
	}
}

func isEmptyInterface(t types.Type) bool {
	it, ok := t.Underlying().(*types.Interface)
	return ok && it.NumMethods() == 0
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
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
