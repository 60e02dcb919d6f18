package scenario

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
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
// never through an import.
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
}

// TestRunPhasesWrittenOnce pins the one way to build, feed and observe a
// network. Outside this package, the package that defines a call, test
// files and bench/ (a module of its own), no file calls
//   - a stack's Build, a registered Codec's Build or an engine constructor:
//     Build picks the medium from the topology and the stack from the
//     registry, and equal spec hashes mean equal bytes only while that
//     choice is made in one place;
//   - InjectData or Wake: Inject wakes a napping source before the enqueue,
//     and a packet handed to a node that naps waits out the nap;
//   - chaos.Apply, invariant.Attach or flows.Schedule: Observe and Drive
//     compose the fault/observer wiring and the injection closure.
//
// The hold-outs are named with their reasons, and each must still need its
// exemption.
func TestRunPhasesWrittenOnce(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	// Each banned call — package.Func, or .Method on any receiver that is
	// not an imported package — and the package that defines it.
	home := map[string]string{
		"core.Build":               "internal/core",
		"orchestra.Build":          "internal/orchestra",
		"whart.Build":              "internal/whart",
		"controller.BuildSDN":      "internal/controller",
		"controller.BuildAdaptive": "internal/controller",
		".Build":                   "internal/stack",
		"sim.NewNetwork":           "internal/sim",
		"sim.NewScaleNetwork":      "internal/sim",
		".InjectData":              "internal/mac",
		".Wake":                    "internal/sim",
		"chaos.Apply":              "internal/chaos",
		"invariant.Attach":         "internal/invariant",
		"flows.Schedule":           "internal/flows",
	}
	const downlink = "needs mac.Config.DownlinkFrameLen for its command slots, which no Params field carries"
	holdOuts := map[string]map[string]string{
		"examples/actuation/main.go": {
			"sim.NewNetwork": downlink, "core.Build": downlink, ".Wake": downlink, ".InjectData": downlink,
		},
		"internal/stack/stack.go": {
			".Wake": "Healer wakes the orphan it cold-restarts, outside any injection",
		},
	}
	needed := map[string]bool{}
	walked := 0
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			switch rel {
			case "bench", ".bench_build", ".git", "internal/scenario":
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
		imported := map[string]bool{}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = true
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
			name := "." + sel.Sel.Name
			if pkg, ok := sel.X.(*ast.Ident); ok && imported[pkg.Name] {
				name = pkg.Name + name
			}
			dir, banned := home[name]
			if !banned || dir == filepath.ToSlash(filepath.Dir(rel)) {
				return true
			}
			if _, ok := holdOuts[rel][name]; ok {
				needed[rel+" "+name] = true
				return true
			}
			t.Errorf("%s calls %s: build, feed and observe networks through internal/scenario instead", rel, name)
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
	for file, calls := range holdOuts {
		for name, why := range calls {
			if !needed[file+" "+name] {
				t.Errorf("%s no longer calls %s: drop its hold-out (%s)", file, name, why)
			}
		}
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

// TestMakefileNamesExistingTests: every -run alternative and -fuzz target
// in the Makefile matches a test function in the packages its line names.
// go test passes a stale name silently ("[no tests to run]", exit 0), so a
// renamed test would otherwise leave a CI step running nothing.
func TestMakefileNamesExistingTests(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	flagRe := regexp.MustCompile(`-(run|fuzz)[= ]('[^']*'|"[^"]*"|\S+)`)
	pkgRe := regexp.MustCompile(`(?:^|\s)(\./\S*)`)
	cdRe := regexp.MustCompile(`\bcd (\S+) &&`)
	funcs := map[string][]string{} // package dir → its top-level functions
	testsIn := func(dir string) []string {
		if names, ok := funcs[dir]; ok {
			return names
		}
		var names []string
		files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
		funcs[dir] = names
		return names
	}
	checked := 0
	for _, line := range strings.Split(strings.ReplaceAll(string(raw), "\\\n", " "), "\n") {
		if !strings.Contains(line, "$(GO) test ") {
			continue
		}
		base := root
		if m := cdRe.FindStringSubmatch(line); m != nil {
			base = filepath.Join(root, m[1])
		}
		var dirs []string
		for _, m := range pkgRe.FindAllStringSubmatch(line, -1) {
			pkg, recursive := strings.CutSuffix(m[1], "/...")
			dir := filepath.Join(base, pkg)
			if !recursive {
				dirs = append(dirs, dir)
				continue
			}
			filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
				if err == nil && d.IsDir() {
					dirs = append(dirs, path)
				}
				return err
			})
		}
		for _, m := range flagRe.FindAllStringSubmatch(line, -1) {
			pattern := strings.ReplaceAll(strings.Trim(m[2], `'"`), "$$", "$")
			if pattern == "^$" {
				continue
			}
			// -run selects tests, examples and fuzz targets' seed corpora;
			// -fuzz selects a fuzz target.
			kind := regexp.MustCompile(`^(Test|Example|Fuzz)`)
			if m[1] == "fuzz" {
				kind = regexp.MustCompile(`^Fuzz`)
			}
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile -%s %q: %v", m[1], alt, err)
					continue
				}
				found := false
				for _, dir := range dirs {
					for _, name := range testsIn(dir) {
						if kind.MatchString(name) && re.MatchString(name) {
							found = true
						}
					}
				}
				if !found {
					t.Errorf("Makefile -%s alternative %q matches no %s function in %v", m[1], alt, kind, dirs)
				}
				checked++
			}
		}
	}
	if checked < 40 {
		t.Fatalf("only %d -run/-fuzz names checked in the Makefile: is the parse still right?", checked)
	}
}
