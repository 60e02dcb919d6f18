package scenario

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/interference"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/topology"
)

func buildTest(t *testing.T, proto string, seed int64) *Scenario {
	t.Helper()
	sc, err := Build(Params{TopologyName: testTopo, Protocol: proto, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestFormColdWarmEqual: whatever the join fraction and the settling
// margin, a restored formation reports what the simulated one did and
// leaves the network at the same slot — and every (fraction, settle) pair
// is its own cache entry.
func TestFormColdWarmEqual(t *testing.T) {
	cache := &snapshot.Cache{Dir: t.TempDir()}
	entries := 0
	for _, frac := range []float64{1.0, 0.9} {
		for _, settle := range []time.Duration{0, 30 * time.Second, 60 * time.Second} {
			cold := buildTest(t, "digs", 3)
			cf, err := cold.Form(context.Background(), cache, frac, 6*time.Minute, settle)
			if err != nil {
				t.Fatal(err)
			}
			warm := buildTest(t, "digs", 3)
			wf, err := warm.Form(context.Background(), cache, frac, 6*time.Minute, settle)
			if err != nil {
				t.Fatal(err)
			}
			if cf.Warm || !wf.Warm {
				t.Fatalf("frac %v settle %v: cold.Warm=%v warm.Warm=%v", frac, settle, cf.Warm, wf.Warm)
			}
			if cf.Slots == 0 || cf.Joined < JoinTarget(frac, 20) {
				t.Fatalf("frac %v settle %v: formation reported %+v", frac, settle, cf)
			}
			if cf.Slots != wf.Slots || cf.Joined != wf.Joined || cold.NW.ASN() != warm.NW.ASN() {
				t.Errorf("frac %v settle %v: cold %+v at slot %d, warm %+v at slot %d",
					frac, settle, cf, cold.NW.ASN(), wf, warm.NW.ASN())
			}
			if got := cold.NW.ASN(); got != cf.Slots+sim.SlotsFor(settle) {
				t.Errorf("frac %v settle %v: at slot %d after %d formation slots", frac, settle, got, cf.Slots)
			}
			entries++
			if files, _ := os.ReadDir(cache.Dir); len(files) != entries {
				t.Fatalf("frac %v settle %v: %d cache entries, want %d", frac, settle, len(files), entries)
			}
		}
	}
}

// TestFormEntryWarmsRunSpec: the formation cache is one format — an entry
// a bare Form call stored (as digs-chaos or a figure campaign would) is a
// warm hit for RunSpec, with the result bytes of a cold run.
func TestFormEntryWarmsRunSpec(t *testing.T) {
	spec := Spec{
		Topology: testTopo, Protocol: "orchestra", Seed: 5,
		Period: Duration(2 * time.Second), Window: Duration(10 * time.Second),
	}
	run := func(warm *snapshot.Cache) ([]byte, bool) {
		t.Helper()
		res, info, err := RunSpec(context.Background(), spec, RunOpts{Warm: warm})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := res.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return enc, info.WarmHit
	}
	cold, _ := run(nil)

	cache := &snapshot.Cache{Dir: t.TempDir()}
	sc, err := Build(Params{TopologyName: testTopo, Protocol: "orchestra", Seed: 5, Period: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := form(sc, cache); err != nil {
		t.Fatal(err)
	}
	warm, hit := run(cache)
	if !hit {
		t.Fatal("RunSpec missed the entry a bare Form call stored")
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("results diverge:\ncold: %s\nwarm: %s", cold, warm)
	}
}

// TestFormOldEntryIsAMiss: caches written before the single formation
// phase are still on disk, with formed_slots only (digs-chaos) or no
// formation metadata at all (the figure campaigns). Such an entry is not an
// error: it is re-formed — nothing of it is restored — and overwritten.
func TestFormOldEntryIsAMiss(t *testing.T) {
	for _, keep := range []string{"", "formed_slots"} {
		t.Run("keeps="+keep, func(t *testing.T) {
			cache := &snapshot.Cache{Dir: t.TempDir()}
			writer := buildTest(t, "digs", 3)
			want, err := form(writer, cache)
			if err != nil {
				t.Fatal(err)
			}
			key := writer.CacheKey("formed+30s")
			snap, err := cache.Load(key)
			if err != nil || snap == nil {
				t.Fatalf("formation entry not under %v: %v", key, err)
			}
			for _, k := range []string{"formed_slots", "joined_at_form"} {
				if k != keep {
					delete(snap.Meta.Extra, k)
				}
			}
			if err := cache.Store(key, snap); err != nil {
				t.Fatal(err)
			}

			reader := buildTest(t, "digs", 3)
			got, err := form(reader, cache)
			if err != nil {
				t.Fatalf("old-format entry was fatal: %v", err)
			}
			if got.Warm {
				t.Fatal("old-format entry counted as a warm hit")
			}
			if got.Slots != want.Slots || got.Joined != want.Joined {
				t.Fatalf("re-formed %+v, original %+v", got, want)
			}
			again, err := form(buildTest(t, "digs", 3), cache)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Warm || again.Slots != want.Slots || again.Joined != want.Joined {
				t.Fatalf("entry not replaced: next caller got %+v, want a warm %+v", again, want)
			}
		})
	}
}

// flipCtx reports cancellation from its n-th Err call on.
type flipCtx struct {
	context.Context
	calls, n int
}

func (c *flipCtx) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestFormCancelled: cancellation is honoured at the next chunk boundary.
// A crashed device keeps the full-join target out of reach, so only the
// context can end this formation before its 30-minute budget.
func TestFormCancelled(t *testing.T) {
	sc := buildTest(t, "digs", 1)
	sc.NW.Fail(topology.NodeID(20))
	ctx := &flipCtx{Context: context.Background(), n: 3}
	_, err := sc.Form(ctx, nil, 1.0, 30*time.Minute, 30*time.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Form = %v, want context.Canceled", err)
	}
	if got := sc.NW.ASN(); got != 2*chunkSlots {
		t.Fatalf("formation stopped at slot %d, want %d (two chunks ran before the cancel)", got, 2*chunkSlots)
	}
}

// TestFormTimeout: a formation that cannot meet its target fails with the
// one failure text, after exactly its budget — and a cached formation that
// took longer than the caller allows does not rescue it: warm fails as cold
// does.
func TestFormTimeout(t *testing.T) {
	sc := buildTest(t, "digs", 1)
	sc.NW.Fail(topology.NodeID(20))
	_, err := sc.Form(context.Background(), nil, 1.0, time.Minute, 30*time.Second)
	const want = "only 19/20 nodes joined during formation (target 20)"
	if err == nil || err.Error() != want {
		t.Fatalf("Form = %v, want %q", err, want)
	}
	if got := sc.NW.ASN(); got != 6000 {
		t.Fatalf("gave up at slot %d, want 6000", got)
	}

	cache := &snapshot.Cache{Dir: t.TempDir()}
	slow, err := form(buildTest(t, "digs", 3), cache)
	if err != nil {
		t.Fatal(err)
	}
	budget := sim.TimeAt(slow.Slots / 2)
	_, cold := buildTest(t, "digs", 3).Form(context.Background(), nil, 1.0, budget, 30*time.Second)
	_, warm := buildTest(t, "digs", 3).Form(context.Background(), cache, 1.0, budget, 30*time.Second)
	if cold == nil || warm == nil || cold.Error() != warm.Error() {
		t.Fatalf("half the formation time as budget: cold %v, from the cache %v", cold, warm)
	}
}

// TestFormWithoutCacheTakesNoSnapshot: a network with an interferer
// registered refuses to be captured, so a capture attempt is observable —
// formation without a cache must not make one.
func TestFormWithoutCacheTakesNoSnapshot(t *testing.T) {
	never := func(sc *Scenario) {
		topo := sc.Params.Topology
		sc.NW.AddInterferer(&interference.Window{
			Source:   interference.NewWiFiJammer(topo, topo.SuggestedJammers[0], 1, 1),
			StartASN: 1 << 40,
		})
	}
	sc := buildTest(t, "digs", 3)
	never(sc)
	if _, err := form(sc, nil); err != nil {
		t.Fatalf("formation without a cache tried to capture the network: %v", err)
	}
	sc = buildTest(t, "digs", 3)
	never(sc)
	if _, err := form(sc, &snapshot.Cache{Dir: t.TempDir()}); err == nil {
		t.Fatal("sanity: a cached formation must fail to capture a network with an interferer")
	}
}
