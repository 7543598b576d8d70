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
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
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

// recvName is the name of a method's receiver type.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj().Name()
	}
	return ""
}

// exempt reports whether a declaration may stay without a non-test
// caller: its doc comment has a line `// api: <reason>` (gofmt's
// spelling of `//api:`), it is a String or Error method (callers reach
// those through fmt), or it is a method that makes its receiver type
// satisfy an interface declared in the module or in a package the
// module imports.
func exempt(doc *ast.CommentGroup, fn *types.Func, ifaces map[*types.Named]bool) bool {
	if doc != nil {
		for _, c := range doc.List {
			if strings.HasPrefix(strings.TrimLeft(strings.TrimPrefix(c.Text, "//"), " "), "api:") {
				return true
			}
		}
	}
	if fn == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	if (fn.Name() == "String" || fn.Name() == "Error") && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
		return true
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for iface := range ifaces {
		it := iface.Underlying().(*types.Interface)
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
	}
	return false
}

// TestNoDeadInternalAPI fails on every exported identifier of
// fpdyn/internal/... that no non-test file of the root module or of
// perfbench uses. It checks package-level declarations and methods, not
// struct fields; the root package (the public library API) and cmd/
// are out of its scope. A declaration that must stay without a caller
// says why in its doc comment, on a line starting `// api:`.
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
	used := map[types.Object]bool{}
	ifaces := map[*types.Named]bool{}
	for _, cp := range pkgs {
		// A method's receiver names its own type; that is no use of it.
		recvs := map[*ast.Ident]bool{}
		for _, f := range cp.files {
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
		}
		for id, obj := range cp.info.Uses {
			if !recvs[id] {
				used[origin(obj)] = true
			}
		}
		for _, pkg := range append(cp.pkg.Imports(), cp.pkg) {
			for _, name := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
					if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && types.IsInterface(n) {
						ifaces[n] = true
					}
				}
			}
		}
	}

	var dead []string
	report := func(cp *checkedPackage, id *ast.Ident, doc *ast.CommentGroup) {
		obj := cp.info.Defs[id]
		if !id.IsExported() || obj == nil || used[obj] {
			return
		}
		fn, _ := obj.(*types.Func)
		if exempt(doc, fn, ifaces) {
			return
		}
		name := id.Name
		if fn != nil {
			if r := fn.Type().(*types.Signature).Recv(); r != nil {
				name = recvName(r.Type()) + "." + name
			}
		}
		pos := fset.Position(id.Pos())
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		dead = append(dead, fmt.Sprintf("%s.%s (%s:%d)", cp.pkg.Name(), name, pos.Filename, pos.Line))
	}
	for _, cp := range pkgs {
		if !strings.HasPrefix(cp.pkg.Path(), "fpdyn/internal/") {
			continue
		}
		for _, f := range cp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					report(cp, d.Name, d.Doc)
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
							report(cp, id, doc)
						}
					}
				}
			}
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported identifiers in internal/ have no non-test use; delete or unexport them, or give a reason on a \"// api:\" doc line:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}
