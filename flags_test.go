package fpdyn_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// commandFlags is every command's flag set, sorted. A new flag, or a
// retired one, needs an edit here: a knob is added only when two
// callers need different values, and retired once its question is
// answered.
var commandFlags = map[string][]string{
	"fpgen":     {"deployment", "mem-budget", "o", "scenario", "seed", "spill-dir", "stage-timing", "truth", "users"},
	"fplinkd":   {"addr", "admin-addr", "compact-every", "drain-timeout", "fsync", "max-inflight", "queue-depth", "rule-only", "sample-every", "wal-dir", "window", "workers"},
	"fpreplay":  {"addr", "in", "report", "speedup"},
	"fpreport":  {"mem-budget", "scenario", "seed", "spill-dir", "stage-timing", "users", "what"},
	"fpserver":  {"addr", "admin-addr", "compact-every", "drain-timeout", "fsync", "o", "shards", "wal-dir"},
	"fpstalker": {"bench", "k", "noblocking", "seed", "sizes", "users", "variant"},
}

// TestCommandFlagInventory parses cmd/*/main.go and collects the name
// of every flag.*(…) definition — the first string-literal argument of
// a call on package flag — and compares each command's sorted list
// with commandFlags.
func TestCommandFlagInventory(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	fset := token.NewFileSet()
	for _, path := range mains {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		names := []string{}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatalf("%s: %v", fset.Position(lit.Pos()), err)
					}
					names = append(names, name)
					break
				}
			}
			return true
		})
		sort.Strings(names)
		got[filepath.Base(filepath.Dir(path))] = names
	}
	if !reflect.DeepEqual(got, commandFlags) {
		for cmd, names := range got {
			if want, ok := commandFlags[cmd]; !ok {
				t.Errorf("%s: not in commandFlags; its flags are %q", cmd, names)
			} else if !reflect.DeepEqual(names, want) {
				t.Errorf("%s flags = %q, want %q", cmd, names, want)
			}
		}
		for cmd := range commandFlags {
			if _, ok := got[cmd]; !ok {
				t.Errorf("%s: in commandFlags but cmd/%s/main.go is missing", cmd, cmd)
			}
		}
	}
}
