package scenario

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/stack"
)

const modulePath = "github.com/digs-net/digs/"

// moduleDeps returns the transitive in-module imports of a package
// directory's non-test files, as paths relative to the module root.
func moduleDeps(t *testing.T, root, pkg string, seen map[string]bool) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, pkg, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files in %s (%v)", pkg, err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			dep, ok := strings.CutPrefix(path, modulePath)
			if !ok || seen[dep] {
				continue
			}
			seen[dep] = true
			moduleDeps(t, root, dep, seen)
		}
	}
}

// TestSnapshotImportsNoStack pins the layering the stack contract buys:
// the snapshot package reaches stack state only through registered codecs,
// never through an import, and the set of stacks the scenario layer builds
// is exactly the set the snapshot layer can decode.
func TestSnapshotImportsNoStack(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	deps := map[string]bool{}
	moduleDeps(t, root, "internal/snapshot", deps)
	if !deps["internal/stack"] || !deps["internal/wire"] {
		t.Fatalf("import walk missed the contract packages: %v", deps)
	}
	for _, banned := range []string{"core", "orchestra", "whart", "controller", "rpl", "trickle", "link", "scenario"} {
		if deps["internal/"+banned] {
			t.Errorf("internal/snapshot depends on internal/%s", banned)
		}
	}
	if got, want := stack.Registered(), RegisteredStacks(); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot layer decodes %v, scenario layer builds %v", got, want)
	}
}

// TestRunPhasesWrittenOnce pins the one run pipeline: the fault/observer
// wiring and the injection closure exist in this package only. Outside it
// (and outside the packages that define them, test files and bench/, a
// module of its own) no file calls chaos.Apply, invariant.Attach or
// flows.Schedule, except the named hold-outs: Figure 9/10's silent
// application of the Figure 8 plan (nil emit, no hooks — there is no chain
// to build) and the examples that do not use this package at all.
func TestRunPhasesWrittenOnce(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"chaos.Apply": true, "invariant.Attach": true, "flows.Schedule": true}
	holdOut := map[string]string{"internal/experiments/fig9_10.go": "chaos.Apply"}
	walked := 0
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			switch rel {
			case "bench", ".bench_build", ".git", "internal/scenario", "internal/chaos", "internal/flows", "internal/invariant":
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
		usesScenario := false
		for _, imp := range f.Imports {
			usesScenario = usesScenario || imp.Path.Value == strconv.Quote(modulePath+"internal/scenario")
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			name := pkg.Name + "." + sel.Sel.Name
			if !banned[name] || holdOut[rel] == name || (strings.HasPrefix(rel, "examples/") && !usesScenario) {
				return true
			}
			t.Errorf("%s calls %s: compose the phases in internal/scenario instead", rel, name)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if walked < 50 {
		t.Fatalf("source walk saw only %d files from %s", walked, root)
	}
}

// TestRunSpecShardsBitIdentical: Spec.Hash excludes Shards, an accepted and
// ignored field, so every Shards value must produce the same result bytes —
// for every registered stack. On a dense-capable topology that means the
// field never reaches the engine choice (the dense and sparse loops draw
// randomness differently and would diverge).
func TestRunSpecShardsBitIdentical(t *testing.T) {
	for _, proto := range RegisteredStacks() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			var first []byte
			var firstHash string
			for _, shards := range []int{0, 1, 2} {
				spec := Spec{
					Topology: "half-testbed-a", Protocol: proto, Seed: 3, Shards: shards,
					Period: Duration(2 * time.Second), Window: Duration(10 * time.Second),
				}
				hash, err := spec.Hash()
				if err != nil {
					t.Fatal(err)
				}
				res, _, err := RunSpec(context.Background(), spec, RunOpts{})
				if err != nil {
					t.Fatalf("shards %d: %v", shards, err)
				}
				enc, err := res.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first, firstHash = enc, hash
					continue
				}
				if hash != firstHash {
					t.Errorf("shards %d: spec hash %s, shards 0 hashed %s", shards, hash, firstHash)
				}
				if !bytes.Equal(enc, first) {
					t.Errorf("shards %d: equal spec hash, different result bytes:\n%s\n%s", shards, enc, first)
				}
			}
		})
	}
}
