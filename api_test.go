package fpdyn_test

import (
	"bytes"
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
	"testing"
)

// listedPackage is the part of `go list -json` output the API gate
// reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Error      *struct{ Err string }
}

// goList runs `go list -deps -export -json ./...` in dir. Packages come
// back dependencies first, and each carries its compiled export data.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// checkedPackage is one module package type-checked from its non-test
// files.
type checkedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loadModules type-checks every package of the root module and of
// perfbench from its non-test files, dependencies first. Module
// packages import each other's checked form, so one declaration is one
// types.Object everywhere; the standard library comes from the export
// data `go list` compiled.
func loadModules(fset *token.FileSet) ([]*checkedPackage, error) {
	var listed []listedPackage
	for _, dir := range []string{".", "perfbench"} {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		listed = append(listed, pkgs...)
	}
	exports := map[string]string{}
	for _, p := range listed {
		exports[p.ImportPath] = p.Export
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})
	var out []*checkedPackage
	for _, p := range listed {
		if p.ImportPath != "fpdyn" && !strings.HasPrefix(p.ImportPath, "fpdyn/") || checked[p.ImportPath] != nil {
			continue
		}
		cp := &checkedPackage{info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Instances:  map[*ast.Ident]types.Instance{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			cp.files = append(cp.files, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, cp.files, cp.info)
		if err != nil {
			return nil, err
		}
		cp.pkg = pkg
		checked[p.ImportPath] = pkg
		out = append(out, cp)
	}
	return out, nil
}

// origin reduces an object of an instantiated generic type or function
// to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// hasAPILine reports whether a comment group has a line
// `// api: <reason>` (gofmt's spelling of `//api:` in a doc comment).
func hasAPILine(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.HasPrefix(strings.TrimLeft(strings.TrimPrefix(c.Text, "//"), " "), "api:") {
			return true
		}
	}
	return false
}

// namedOf is the declaration behind a named type, a pointer to one, or
// an instance of either.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// usage is what the non-test code of both modules does with the
// module's declarations.
type usage struct {
	used map[types.Object]bool
	// read and set hold struct fields, keyed by their declaration.
	read, set map[*types.Var]bool
	// boxed holds, per named type T, every interface that non-test code
	// converts a T or *T to.
	boxed map[*types.TypeName][]*types.Interface
}

// box records the conversion of a src value to dst, when dst is an
// interface and src a named concrete type.
func (u *usage) box(src, dst types.Type) {
	if src == nil || dst == nil || !types.IsInterface(dst) || types.IsInterface(src) {
		return
	}
	if tn := namedOf(src); tn != nil {
		u.boxed[tn] = append(u.boxed[tn], dst.Underlying().(*types.Interface))
	}
}

// compared marks every field a comparison of t reads.
func (u *usage) compared(t types.Type) {
	switch t := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			u.read[t.Field(i).Origin()] = true
			u.compared(t.Field(i).Type())
		}
	case *types.Array:
		u.compared(t.Elem())
	}
}

// serialised marks every exported field reachable from t as read and
// set: encoding/json encodes and decodes them.
func (u *usage) serialised(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.Underlying().(type) {
	case *types.Pointer:
		u.serialised(t.Elem(), seen)
	case *types.Slice:
		u.serialised(t.Elem(), seen)
	case *types.Array:
		u.serialised(t.Elem(), seen)
	case *types.Map:
		u.serialised(t.Key(), seen)
		u.serialised(t.Elem(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() {
				u.read[f.Origin()], u.set[f.Origin()] = true, true
				u.serialised(f.Type(), seen)
			}
		}
	}
}

// fieldAccess reports whether the field selector on top of stack is
// read and whether it is set. Assigning to it, or x.f++, sets it
// without reading it; writing an element or a field of it, taking its
// address, or calling a pointer method on it sets and reads it.
func fieldAccess(info *types.Info, stack []ast.Node) (read, set bool) {
	cur := stack[len(stack)-1].(ast.Expr)
	direct := true
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			cur = p
			continue
		case *ast.IndexExpr:
			if p.X == cur {
				cur, direct = p, false
				continue
			}
		case *ast.SelectorExpr:
			if s := info.Selections[p]; s != nil && p.X == cur {
				if s.Kind() == types.FieldVal {
					cur, direct = p, false
					continue
				}
				_, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				_, ptrVal := info.TypeOf(cur).Underlying().(*types.Pointer)
				return true, ptrRecv && !ptrVal
			}
		case *ast.AssignStmt:
			for _, l := range p.Lhs {
				if l == cur {
					return !direct, true
				}
			}
		case *ast.IncDecStmt:
			return !direct, true
		case *ast.UnaryExpr:
			return true, p.Op == token.AND
		}
		return true, false
	}
	return true, false
}

// scan records the uses in one package's non-test files.
func (u *usage) scan(cp *checkedPackage) {
	info := cp.info
	for _, f := range cp.files {
		// A method's receiver names its own type; that is no use of it.
		recvs := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recvs[id] = true
					}
					return true
				})
			}
		}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil && !recvs[n] {
					u.used[origin(obj)] = true
				}
			case *ast.SelectorExpr:
				sel := info.Selections[n]
				if sel == nil {
					break
				}
				set := false
				if sel.Kind() == types.FieldVal {
					f := sel.Obj().(*types.Var).Origin()
					var read bool
					read, set = fieldAccess(info, stack)
					u.read[f] = u.read[f] || read
					u.set[f] = u.set[f] || set
				}
				// Reaching a promoted field or method reads each
				// embedded field on the way, and setting a promoted
				// field sets them.
				t, path := sel.Recv(), sel.Index()
				for _, i := range path[:len(path)-1] {
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					f := t.Underlying().(*types.Struct).Field(i)
					u.read[f.Origin()] = true
					u.set[f.Origin()] = u.set[f.Origin()] || set
					t = f.Type()
				}
			case *ast.CompositeLit:
				t := info.TypeOf(n)
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				switch ut := t.Underlying().(type) {
				case *types.Struct:
					for i, e := range n.Elts {
						var f *types.Var
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							f, e = info.Uses[kv.Key.(*ast.Ident)].(*types.Var), kv.Value
						} else {
							f = ut.Field(i)
						}
						u.set[f.Origin()] = true
						u.box(info.TypeOf(e), f.Type())
					}
				case interface{ Elem() types.Type }: // slice, array or map
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if m, ok := ut.(*types.Map); ok {
								u.box(info.TypeOf(kv.Key), m.Key())
							}
							e = kv.Value
						}
						u.box(info.TypeOf(e), ut.Elem())
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					u.compared(info.TypeOf(n.X))
				}
			case *ast.CallExpr:
				fun := info.Types[n.Fun]
				switch {
				case fun.IsType():
					if len(n.Args) == 1 {
						u.box(info.TypeOf(n.Args[0]), fun.Type)
					}
				case fun.IsBuiltin():
					id, _ := ast.Unparen(n.Fun).(*ast.Ident)
					if s, ok := info.TypeOf(n).Underlying().(*types.Slice); ok && id != nil && id.Name == "append" && !n.Ellipsis.IsValid() {
						for _, a := range n.Args[1:] {
							u.box(info.TypeOf(a), s.Elem())
						}
					}
				default:
					sig, ok := fun.Type.Underlying().(*types.Signature)
					if !ok {
						break
					}
					params := sig.Params()
					for i, a := range n.Args {
						var pt types.Type
						switch {
						case sig.Variadic() && i >= params.Len()-1:
							pt = params.At(params.Len() - 1).Type()
							if !n.Ellipsis.IsValid() {
								pt = pt.(*types.Slice).Elem()
							}
						case i < params.Len():
							pt = params.At(i).Type()
						}
						u.box(info.TypeOf(a), pt)
					}
					var callee types.Object
					switch fn := ast.Unparen(n.Fun).(type) {
					case *ast.Ident:
						callee = info.Uses[fn]
					case *ast.SelectorExpr:
						callee = info.Uses[fn.Sel]
					}
					if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "encoding/json" {
						for _, a := range n.Args {
							u.serialised(info.TypeOf(a), map[types.Type]bool{})
						}
					}
				}
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						u.box(info.TypeOf(n.Rhs[i]), info.TypeOf(n.Lhs[i]))
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					for _, v := range n.Values {
						u.box(info.TypeOf(v), info.TypeOf(n.Type))
					}
				}
			case *ast.SendStmt:
				if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
					u.box(info.TypeOf(n.Value), ch.Elem())
				}
			case *ast.ReturnStmt:
				var sig *types.Signature
				for i := len(stack) - 2; i >= 0 && sig == nil; i-- {
					switch fn := stack[i].(type) {
					case *ast.FuncLit:
						sig = info.TypeOf(fn).(*types.Signature)
					case *ast.FuncDecl:
						sig = info.Defs[fn.Name].Type().(*types.Signature)
					}
				}
				if sig != nil && sig.Results().Len() == len(n.Results) {
					for i, r := range n.Results {
						u.box(info.TypeOf(r), sig.Results().At(i).Type())
					}
				}
			}
			return true
		})
	}
	// A struct used as a map key, or as a comparable type argument, is
	// compared as a whole.
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			u.compared(m.Key())
		}
	}
	for id, inst := range info.Instances {
		var tparams *types.TypeParamList
		switch obj := origin(info.Uses[id]).(type) {
		case *types.Func:
			tparams = obj.Type().(*types.Signature).TypeParams()
		case *types.TypeName:
			tparams = obj.Type().(*types.Named).TypeParams()
		}
		for i := 0; tparams != nil && i < inst.TypeArgs.Len(); i++ {
			if tparams.At(i).Constraint().Underlying().(*types.Interface).IsComparable() {
				u.compared(inst.TypeArgs.At(i))
			}
		}
	}
}

// exempt reports whether a method may stay without a non-test caller:
// it is a String or Error method (callers reach those through fmt), or
// non-test code converts its receiver type to an interface that has
// the method.
func (u *usage) exempt(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if (fn.Name() == "String" || fn.Name() == "Error") && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
		return true
	}
	for _, it := range u.boxed[namedOf(sig.Recv().Type())] {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}

// TestNoDeadInternalAPI fails on every declaration of fpdyn/internal/...
// that no non-test file of the root module or of perfbench needs:
//   - an exported package-level identifier or method that nothing uses;
//   - a struct field, exported or not, that nothing reads. Assigning to
//     it, x.f++ and a composite-literal key or slot are not reads. A
//     field is read when its struct is compared or used as a map key,
//     when it has a struct tag, or when its type is passed to
//     encoding/json;
//   - an exported struct field that nothing sets: by assignment, a
//     literal key or slot, &x.F, an element or field write such as
//     x.F[i] = v, or a pointer-method call such as x.F.Store(v).
//
// A method counts as used when non-test code converts its receiver
// type to an interface that has it (an assignment, argument, return
// value, literal element or explicit conversion). The root package
// (the public library API) and cmd/ are out of scope. A declaration or
// field that must stay says why on a line starting `// api:` in its
// comment; a type's line covers its methods and fields.
func TestNoDeadInternalAPI(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := loadModules(fset)
	if err != nil {
		t.Fatal(err)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	u := &usage{
		used:  map[types.Object]bool{},
		read:  map[*types.Var]bool{},
		set:   map[*types.Var]bool{},
		boxed: map[*types.TypeName][]*types.Interface{},
	}
	for _, cp := range pkgs {
		u.scan(cp)
	}

	var dead []string
	add := func(cp *checkedPackage, name string, pos token.Pos, why string) {
		p := fset.Position(pos)
		if rel, err := filepath.Rel(root, p.Filename); err == nil {
			p.Filename = rel
		}
		dead = append(dead, fmt.Sprintf("%s.%s (%s:%d): %s", cp.pkg.Name(), name, p.Filename, p.Line, why))
	}
	for _, cp := range pkgs {
		if !strings.HasPrefix(cp.pkg.Path(), "fpdyn/internal/") {
			continue
		}
		// Pass one: the types whose `// api:` line covers their methods
		// and fields.
		apiTypes := map[types.Object]bool{}
		for _, f := range cp.files {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.GenDecl); ok && d.Tok == token.TYPE {
					for _, spec := range d.Specs {
						s := spec.(*ast.TypeSpec)
						if hasAPILine(s.Doc) || !d.Lparen.IsValid() && hasAPILine(d.Doc) {
							apiTypes[cp.info.Defs[s.Name]] = true
						}
					}
				}
			}
		}
		decl := func(id *ast.Ident, doc *ast.CommentGroup) {
			obj := cp.info.Defs[id]
			if !id.IsExported() || obj == nil || u.used[obj] || hasAPILine(doc) {
				return
			}
			name := id.Name
			if fn, ok := obj.(*types.Func); ok {
				if r := fn.Type().(*types.Signature).Recv(); r != nil {
					if apiTypes[namedOf(r.Type())] || u.exempt(fn) {
						return
					}
					name = namedOf(r.Type()).Name() + "." + name
				}
			}
			add(cp, name, id.Pos(), "no non-test use")
		}
		for _, f := range cp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decl(d.Name, d.Doc)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var doc *ast.CommentGroup
						var ids []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							doc, ids = s.Doc, []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							doc, ids = s.Doc, s.Names
						}
						// An unparenthesized declaration's comment
						// belongs to the GenDecl, not the spec.
						if doc == nil && !d.Lparen.IsValid() {
							doc = d.Doc
						}
						for _, id := range ids {
							decl(id, doc)
						}
					}
				}
			}
			// Struct fields, named by the type that declares them.
			owner, ownerAPI := "", false
			ast.Inspect(f, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					owner, ownerAPI = d.Name.Name, false
				case *ast.TypeSpec:
					owner, ownerAPI = d.Name.Name, apiTypes[cp.info.Defs[d.Name]]
				}
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				s := cp.info.TypeOf(st).(*types.Struct)
				k := 0
				for _, field := range st.Fields.List {
					n := max(len(field.Names), 1)
					for j := 0; j < n; j, k = j+1, k+1 {
						v := s.Field(k)
						if v.Name() == "_" || ownerAPI || hasAPILine(field.Doc) || hasAPILine(field.Comment) {
							continue
						}
						// A tagged field is serialised, which reads it.
						if !u.read[v] && field.Tag == nil {
							add(cp, owner+"."+v.Name(), v.Pos(), "field never read")
						}
						if v.Exported() && !u.set[v] {
							add(cp, owner+"."+v.Name(), v.Pos(), "field never set")
						}
					}
				}
				return true
			})
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d declarations in internal/ are not needed by non-test code; delete them, unexport them or make them constants, or give a reason on a \"// api:\" line:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}
