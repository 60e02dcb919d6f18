package sim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneGoroutineStepsTheNetwork walks the non-test Go sources of this
// package and of internal/telemetry and fails when the slot loop could run
// on more than one goroutine again: the engine imports neither sync nor
// sync/atomic and starts no goroutine, and telemetry declares no Splitter,
// the per-shard buffer a parallel loop needs in front of a tracer. Every
// sparse pin depends on the medium's counter-based draws and on its
// per-phase trace buffer, not on a partition of the network.
func TestOneGoroutineStepsTheNetwork(t *testing.T) {
	walked := 0
	for _, dir := range []string{".", "../telemetry"} {
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
			if dir == "." {
				checkEngineFile(t, fset, path, f)
			} else {
				checkTelemetryFile(t, path, f)
			}
		}
	}
	if walked < 8 {
		t.Fatalf("source walk saw only %d files", walked)
	}
}

func checkEngineFile(t *testing.T, fset *token.FileSet, path string, f *ast.File) {
	t.Helper()
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || p == "sync/atomic" {
			t.Errorf("%s imports %s: one goroutine steps the network", path, p)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			t.Errorf("%s: go statement: one goroutine steps the network", fset.Position(g.Pos()))
		}
		return true
	})
}

func checkTelemetryFile(t *testing.T, path string, f *ast.File) {
	t.Helper()
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == "Splitter" {
					t.Errorf("%s declares telemetry.Splitter: no tracer needs a per-shard buffer", path)
				}
			}
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.Name == "NewSplitter" {
				t.Errorf("%s declares telemetry.NewSplitter: no tracer needs a per-shard buffer", path)
			}
		}
	}
}
