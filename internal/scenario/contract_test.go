package scenario

import (
	"bytes"
	"context"
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

// TestRunSpecShardsBitIdentical: Spec.Hash excludes Shards, so every
// Shards value must produce the same result bytes — for every registered
// stack. On a dense-capable topology that means the knob never reaches
// the engine choice (the dense and sparse loops draw randomness
// differently and would diverge).
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
