package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/telemetry"
)

// TestSpecHashCanonicalization: omitted defaults, explicit defaults and
// throughput knobs must all produce the same content address.
func TestSpecHashCanonicalization(t *testing.T) {
	base := Spec{Topology: "half-testbed-a", Protocol: "digs", Seed: 7}
	h0, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]Spec{
		"explicit defaults": {
			Topology: "half-testbed-a", Protocol: "digs", Seed: 7,
			Period: Duration(5 * time.Second), Window: Duration(2 * time.Minute),
			MacBoost: 1, JoinFraction: 1.0,
		},
		"shards differ": {Topology: "half-testbed-a", Protocol: "digs", Seed: 7, Shards: 4},
		"mac_boost zero vs one": {
			Topology: "half-testbed-a", Protocol: "digs", Seed: 7, MacBoost: 1,
		},
	}
	for name, v := range variants {
		h, err := v.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h != h0 {
			t.Errorf("%s: hash %s != base %s", name, h, h0)
		}
	}

	// Different scenarios must not collide.
	for name, v := range map[string]Spec{
		"seed":     {Topology: "half-testbed-a", Protocol: "digs", Seed: 8},
		"protocol": {Topology: "half-testbed-a", Protocol: "orchestra", Seed: 7},
		"window":   {Topology: "half-testbed-a", Protocol: "digs", Seed: 7, Window: Duration(time.Minute)},
		"plan":     {Topology: "half-testbed-a", Protocol: "digs", Seed: 7, PlanName: "fig8"},
	} {
		h, err := v.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == h0 {
			t.Errorf("%s: distinct scenario collided with base hash", name)
		}
	}
}

// TestSpecHashFieldOrderIndependent: the hash is computed from the
// decoded canonical form, so the JSON spelling of a submission — field
// order, omitted zero fields — cannot change it.
func TestSpecHashFieldOrderIndependent(t *testing.T) {
	a := []byte(`{"topology":"testbed-b","protocol":"orchestra","seed":3,"window":"1m"}`)
	b := []byte(`{"window":"60s","seed":3,"protocol":"orchestra","topology":"testbed-b","shards":2}`)
	var sa, sb Spec
	if err := json.Unmarshal(a, &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &sb); err != nil {
		t.Fatal(err)
	}
	ha, err := sa.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := sb.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("field order / spelling changed the hash: %s vs %s", ha, hb)
	}
}

// TestBuildCanonicalRoundTrip: Build(p) and Build(canonical(p)) construct
// the same simulation — same configuration fingerprint, same cache key —
// so default-filled submissions warm-start from snapshots taken by
// explicit ones.
func TestBuildCanonicalRoundTrip(t *testing.T) {
	s := Spec{Topology: "half-testbed-b", Protocol: "digs", Seed: 11}
	sc1, err := Build(s.Params())
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := Build(s.Canonical().Params())
	if err != nil {
		t.Fatal(err)
	}
	if sc1.ConfigHash() != sc2.ConfigHash() {
		t.Fatalf("ConfigHash %016x != canonical %016x", sc1.ConfigHash(), sc2.ConfigHash())
	}
	if k1, k2 := sc1.CacheKey("formed+30s"), sc2.CacheKey("formed+30s"); k1 != k2 {
		t.Fatalf("cache keys differ: %s vs %s", k1, k2)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := map[string]Spec{
		"protocol":        {Protocol: "tcp"},
		"topology":        {Topology: "gen-mars-100"},
		"plan name":       {PlanName: "fig99"},
		"period > window": {Period: Duration(3 * time.Minute), Window: Duration(time.Minute)},
		"shards":          {Shards: 1000},
	}
	for name, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
	good := Spec{}
	if err := good.Validate(); err != nil {
		t.Errorf("zero spec must canonicalize to a valid default scenario: %v", err)
	}
}

// TestRunSpecColdWarmBitIdentical is the warm-pool contract end to end: a
// cold run, a cache-miss run that populates the warm pool, and a
// warm-started run must produce byte-identical canonical results AND
// byte-identical telemetry streams.
func TestRunSpecColdWarmBitIdentical(t *testing.T) {
	spec := Spec{
		Topology: "half-testbed-a", Protocol: "digs", Seed: 5,
		Period: Duration(2 * time.Second), Window: Duration(10 * time.Second),
	}
	run := func(warm *snapshot.Cache) ([]byte, []byte, bool) {
		t.Helper()
		var trace bytes.Buffer
		res, rinfo, err := RunSpec(context.Background(), spec,
			RunOpts{Tracer: telemetry.NewJSONL(&trace), Warm: warm})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := res.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return enc, trace.Bytes(), rinfo.WarmHit
	}

	cold, coldTrace, hit := run(nil)
	if hit {
		t.Fatal("cold run reported a warm hit")
	}
	cache := &snapshot.Cache{Dir: t.TempDir()}
	miss, missTrace, hit := run(cache)
	if hit {
		t.Fatal("first cached run must be a miss")
	}
	warm, warmTrace, hit := run(cache)
	if !hit {
		t.Fatal("second cached run must be a warm hit")
	}
	if !bytes.Equal(cold, miss) || !bytes.Equal(cold, warm) {
		t.Fatalf("results diverge:\ncold: %s\nmiss: %s\nwarm: %s", cold, miss, warm)
	}
	if !bytes.Equal(coldTrace, missTrace) || !bytes.Equal(coldTrace, warmTrace) {
		t.Fatalf("telemetry streams diverge (cold %d bytes, miss %d, warm %d)",
			len(coldTrace), len(missTrace), len(warmTrace))
	}
	if len(coldTrace) == 0 {
		t.Fatal("empty telemetry stream")
	}
}

// TestRunSpecCancelled: a cancelled context aborts the run with ctx.Err()
// and no partial result.
func TestRunSpecCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := RunSpec(ctx, Spec{Topology: "half-testbed-a", Seed: 1}, RunOpts{})
	if err == nil || res != nil {
		t.Fatalf("RunSpec(cancelled ctx) = %v, %v; want nil result and error", res, err)
	}
	if ctx.Err() == nil {
		t.Fatal("sanity")
	}
}

// TestValidateBuildsNothing: validating a spec parses its deployment name
// and builds nothing, so admitting a million-node gen-* spec costs what
// admitting a ten-node one does — a few allocations, not a node's worth.
// digs-server counts on it to answer 413 before anything is built.
func TestValidateBuildsNothing(t *testing.T) {
	allocs := func(topo string) float64 {
		t.Helper()
		spec := Spec{Topology: topo}
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { _ = spec.Validate() })
	}
	huge, tiny := allocs("gen-plant-1000000"), allocs("gen-plant-10")
	if huge != tiny || huge > 8 {
		t.Fatalf("Validate allocates %.0f times for gen-plant-1000000, %.0f for gen-plant-10 (want equal, at most 8)",
			huge, tiny)
	}
}

// TestTraceFormation: RunOpts.TraceFormation puts the formation into the
// stream and moves no result byte; it runs formation cold, so a warm-start
// cache beside it is an error. RunInfo carries the formed scenario and the
// window whose Result the run returned.
func TestTraceFormation(t *testing.T) {
	spec := Spec{Topology: "half-testbed-a", Protocol: "orchestra", Seed: 3, Window: Duration(20 * time.Second)}
	plain, _, err := RunSpec(context.Background(), spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	traced, info, err := RunSpec(context.Background(), spec,
		RunOpts{Tracer: telemetry.NewJSONL(&trace), TraceFormation: true})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := plain.Encode()
	if got, _ := traced.Encode(); !bytes.Equal(got, want) {
		t.Errorf("traced formation moved the result:\n%s\n%s", got, want)
	}
	if info.Measurement == nil || traced != &info.Measurement.Result || info.Scenario.NW.ASN() != traced.FinalSlot {
		t.Errorf("RunInfo does not hold the run's window and scenario")
	}
	var first struct {
		ASN int64 `json:"asn"`
	}
	if err := json.NewDecoder(&trace).Decode(&first); err != nil {
		t.Fatal(err)
	}
	if epoch := traced.FinalSlot - traced.WindowSlots; first.ASN >= epoch {
		t.Errorf("first traced event at slot %d, the window starts at %d: formation untraced", first.ASN, epoch)
	}
	if _, _, err := RunSpec(context.Background(), spec, RunOpts{
		TraceFormation: true, Warm: &snapshot.Cache{Dir: t.TempDir()},
	}); err == nil {
		t.Error("TraceFormation with a warm-start cache: no error")
	}
}
