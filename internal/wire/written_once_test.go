package wire_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// directional matches a function named for one direction of a codec.
var directional = regexp.MustCompile(`^(?i:encode|decode|append|write|read)`)

// TestLayoutsWrittenOnce walks the repository's non-test Go sources and
// fails when a snapshot layout could be written twice again. Outside this
// package, the one-way Writer and Reader are named only by the snapshot
// container (internal/snapshot/codec.go), and there only inside Encode and
// Decode, which frame sections and hand every body to a Coder — so a layout
// has nothing but a Coder to be written against. And no function that
// takes a Coder is named for a direction: an encodeX or a ReadX over a
// Coder is the first half of a mirrored pair.
func TestLayoutsWrittenOnce(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	const container = "internal/snapshot/codec.go"
	walked, layouts := 0, 0
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			switch rel {
			case "bench", ".bench_build", ".git", "internal/wire":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		walked++
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			name := "a package-level declaration"
			if fn != nil {
				name = fn.Name.Name
			}
			framing := rel == container && fn != nil && fn.Recv == nil && (name == "Encode" || name == "Decode")
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "wire" {
					return true
				}
				switch sel.Sel.Name {
				case "Writer", "Reader", "NewReader":
					if !framing {
						t.Errorf("%s: %s names wire.%s: write the layout once, against a *wire.Coder", rel, name, sel.Sel.Name)
					}
				}
				return true
			})
			if fn != nil && takesCoder(fn) {
				layouts++
				if directional.MatchString(name) {
					t.Errorf("%s: %s takes a *wire.Coder but is named for one direction", rel, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if walked < 50 || layouts < 20 {
		t.Fatalf("source walk saw %d files and %d layout functions from %s", walked, layouts, root)
	}
}

// takesCoder reports whether a function has a *wire.Coder parameter.
func takesCoder(fn *ast.FuncDecl) bool {
	for _, p := range fn.Type.Params.List {
		star, ok := p.Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Coder" {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "wire" {
				return true
			}
		}
	}
	return false
}
