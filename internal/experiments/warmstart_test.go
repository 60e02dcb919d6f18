package experiments

import (
	"os"
	"reflect"
	"testing"
)

// TestInterferenceWarmStartIdentical proves the CacheDir path end to end:
// a campaign that forms its networks and populates the snapshot cache, a
// campaign that restores from it, and a campaign that never touches a
// cache all produce exactly the same figure series.
func TestInterferenceWarmStartIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three interference campaigns")
	}
	dir := t.TempDir()
	run := func(cacheDir string) *InterferenceResult {
		opts := DefaultInterferenceOptions("A")
		opts.FlowSets = 2
		opts.Seed = 1
		setWorkers(t, 1)
		opts.CacheDir = cacheDir
		res, err := RunInterference(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run(dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("cold campaign left %d cache entries, want 2 (one per protocol)", len(entries))
	}
	warm := run(dir)
	uncached := run("")
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm-started campaign diverges from the one that populated the cache:\n cold=%+v\n warm=%+v", cold, warm)
	}
	if !reflect.DeepEqual(cold, uncached) {
		t.Errorf("cached campaign diverges from the uncached one:\n cached=%+v\n uncached=%+v", cold, uncached)
	}
}
