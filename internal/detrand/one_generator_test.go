package detrand

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneGenerator walks the repository's non-test Go sources outside this
// package and fails on a call of rand.NewSource: every seeded stream is a
// Source, so each costs the draws it makes and can be counted, reset and
// restored. The benchmark module under bench/ is not walked.
func TestOneGenerator(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	walked := 0
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			switch rel {
			case "bench", ".bench_build", ".git", "internal/detrand":
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
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewSource" {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "rand" {
					t.Errorf("%s calls rand.NewSource: use detrand.New, which draws the same stream", rel)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if walked < 50 {
		t.Fatalf("walked only %d Go files from %s", walked, root)
	}
}
