package link_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mapFieldAllowed names the struct fields that may stay maps: the gateway's
// downlink route cache is network-wide, filled from delivered frames, and
// not consulted on any stack's slot path.
var mapFieldAllowed = map[string]bool{
	"core.Gateway.routes": true,
}

// TestNoMapFieldsOnTheSlotPath walks the non-test Go sources of the
// packages whose state a slot visits — the link estimator, the five stacks'
// routers, schedulers and controllers, and the interference sources — and
// fails when a struct declares a map-typed field. Per-node tables are
// link.Table, kept in ascending node ID; a map would bring back hashing on
// every lookup and a randomised walk order that every choice made over it
// would have to be proven independent of.
func TestNoMapFieldsOnTheSlotPath(t *testing.T) {
	walked := 0
	for _, pkg := range []string{"link", "core", "rpl", "orchestra", "controller", "interference"} {
		dir := filepath.Join("..", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			walked++
			checkMapFields(t, fset, pkg, f)
		}
	}
	if walked < 25 {
		t.Fatalf("source walk saw only %d files", walked)
	}
}

// checkMapFields reports every field of every struct type in the file,
// named or not, whose type mentions a map.
func checkMapFields(t *testing.T, fset *token.FileSet, pkg string, f *ast.File) {
	t.Helper()
	ast.Inspect(f, func(n ast.Node) bool {
		owner := "a struct literal type"
		st, ok := n.(*ast.StructType)
		if ts, named := n.(*ast.TypeSpec); named {
			st, ok = ts.Type.(*ast.StructType)
			owner = ts.Name.Name
		}
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			if !mentionsMap(field.Type) {
				continue
			}
			names := []string{"(embedded)"}
			if len(field.Names) > 0 {
				names = names[:0]
				for _, id := range field.Names {
					names = append(names, id.Name)
				}
			}
			for _, name := range names {
				if key := pkg + "." + owner + "." + name; !mapFieldAllowed[key] {
					t.Errorf("%s: %s is map-typed: a per-node table is a link.Table", fset.Position(field.Pos()), key)
				}
			}
		}
		return false
	})
}

func mentionsMap(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.MapType); ok {
			found = true
		}
		return !found
	})
	return found
}
