package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/controller"
	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/telemetry"
)

// scalePin is the sha256 of each output of runScale: the metrics
// fingerprint, the telemetry JSONL, and the order in which the device
// events and the engine's trace events reached their observers. The pins
// were recorded when the sparse medium ran one goroutine per shard, and
// every shard count produced them.
type scalePin struct{ fingerprint, trace, order string }

// deviceOrder writes a line per device event into the order digest.
type deviceOrder struct{ w io.Writer }

func (d deviceOrder) Record(ev telemetry.Event) {
	fmt.Fprintf(d.w, "device %d %d %d\n", ev.ASN, ev.Type, ev.Node)
}
func (deviceOrder) Flush() error { return nil }

// runScale builds a scenario for the given stack on a generated sparse
// topology, with Shards 8 (accepted and ignored), converges it (to minJoin
// of the deployment — the centralized sdn stack legitimately configures a
// large mesh much more slowly than the distributed stacks form it), runs one
// flow window with telemetry attached, and returns the digests of every
// observable output: a fingerprint of the delivered-packet ledger, the
// per-node MAC statistics, settled (exact float bits) and the final ASN; the raw
// telemetry JSONL bytes; and the interleaving of device and engine events.
// The last is what pins the sparse medium's buffering of its engine events
// until the end of each phase.
func runScale(t *testing.T, topoName, proto string, minJoin float64) (got scalePin, traceLen int) {
	t.Helper()
	sc, err := Build(Params{
		TopologyName: topoName,
		Protocol:     proto,
		Seed:         42,
		Period:       2 * time.Second,
		Shards:       8,
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if !sc.NW.ScaleMode() {
		t.Fatalf("expected scale mode for %s", topoName)
	}
	var trace bytes.Buffer
	order := sha256.New()
	sc.SetTracer(telemetry.Multi(telemetry.NewJSONL(&trace), deviceOrder{order}))
	sc.NW.Trace = func(ev sim.TraceEvent) {
		fmt.Fprintf(order, "engine %d %d %d %d\n", ev.ASN, ev.Kind, ev.Src, ev.Dst)
	}

	topo := sc.NW.Topology()
	n := topo.N()
	// Converge to full join or the slot cap, whichever first. Nodes whose
	// only links sit in the sub-sensitivity guard band can take very long
	// to join; they don't carry the test's flows.
	sc.NW.RunUntil(60_000, func() bool { return sc.Joined() == n })
	if j := sc.Joined(); float64(j) < float64(n)*minJoin {
		t.Fatalf("only %d/%d joined after %d slots", j, n, sc.NW.ASN())
	}

	var delivered []string
	sc.OnDeliver(func(asn sim.ASN, f *sim.Frame) {
		delivered = append(delivered, fmt.Sprintf("%d/%d/%d@%d", f.Origin, f.FlowID, f.Seq, asn))
	})
	fset := flows.FixedSet(topo.SuggestedSources, 2*time.Second)
	sent := 0
	flows.Schedule(sc.NW, fset, 4, func(f flows.Flow, seq uint16, _ sim.ASN) {
		sent++
		_ = sc.Inject(f.Source, f.ID, seq)
	})
	sc.NW.Run(sim.SlotsFor(12 * time.Second))

	// A napping node's counters lag until it wakes: settle them, as
	// Scenario.Energy does, so the fingerprint reads the run's totals and
	// not the engine's nap schedule.
	sc.NW.SettleNaps()
	fp := sha256.New()
	fmt.Fprintf(fp, "asn=%d sent=%d\n", sc.NW.ASN(), sent)
	for _, d := range delivered {
		fmt.Fprintln(fp, d)
	}
	for i := 1; i <= n; i++ {
		st := sc.MACNode(i).Stats()
		fmt.Fprintf(fp, "%d e=%x on=%d slots=%d tx=%d/%d rx=%d gen=%d fwd=%d sink=%d drop=%d/%d dup=%d\n",
			i, math.Float64bits(st.EnergyJoules), int64(st.RadioOnTime), st.Slots,
			st.TxData, st.TxControl, st.RxFrames, st.Generated, st.Forwarded,
			st.SinkDelivered, st.DroppedQueue, st.DroppedRetries, st.Duplicates)
	}
	tr := sha256.Sum256(trace.Bytes())
	return scalePin{
		fingerprint: hex.EncodeToString(fp.Sum(nil)),
		trace:       hex.EncodeToString(tr[:]),
		order:       hex.EncodeToString(order.Sum(nil)),
	}, trace.Len()
}

// checkScalePin runs the scenario and holds its outputs to the pin.
func checkScalePin(t *testing.T, topoName, proto string, minJoin float64, want scalePin) {
	t.Helper()
	got, traceLen := runScale(t, topoName, proto, minJoin)
	if traceLen == 0 {
		t.Fatal("telemetry stream empty: the tracer is not wired to the stack")
	}
	if got.fingerprint != want.fingerprint {
		t.Errorf("metrics fingerprint digest %s, pinned %s", got.fingerprint, want.fingerprint)
	}
	if got.trace != want.trace {
		t.Errorf("telemetry JSONL digest %s (%d bytes), pinned %s", got.trace, traceLen, want.trace)
	}
	if got.order != want.order {
		t.Errorf("device and engine event order digest %s, pinned %s", got.order, want.order)
	}
}

// TestScaleShardBitIdentity pins DiGS on gen-field-300-3: metrics, per-node
// statistics, the telemetry stream and its interleaving with the engine's
// events, byte for byte.
func TestScaleShardBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence test")
	}
	checkScalePin(t, "gen-field-300-3", core.Protocol, 0.9, scalePin{
		fingerprint: "d560b70f93c3641abde3bcb0dab250b483f560721d1415c392241aa7d54acd16",
		trace:       "599d528466e2c5faba31095ff1eaeadfcc58e37691f107986690029dffa305d1",
		order:       "b21f7394c94c4dcdfe3efd8764dd2cb5eabe5ed6fc3022e31b4bbe754f2e0f5e",
	})
}

// TestControllerScaleShardBitIdentity pins the controller-layer stacks the
// same way: the adaptive allocator (whose cell budgets react to per-tick
// queue and loss observations) and the centralized sdn stack (whose
// controller node collects and disseminates in-band). The sdn join floor is
// low on purpose: configuring an 80-node mesh through one controller takes
// many report/dissemination epochs, and this test is about determinism, not
// reconvergence speed.
func TestControllerScaleShardBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence test")
	}
	for _, tc := range []struct {
		proto   string
		minJoin float64
		pin     scalePin
	}{
		{controller.AdaptiveProtocol, 0.9, scalePin{
			fingerprint: "385de6f875f141f9f73d6e9dcb9596be289457a55a9345ec9afcff2abffc4942",
			trace:       "db28da71f9ef27b587b17a71a25a55f101b267742280647f366fcefbdc180072",
			order:       "d1df9c7bbe138e09897e5dbca652c4b5ca686c67a85d0401da338eb51a7bb164",
		}},
		{controller.SDNProtocol, 0.15, scalePin{
			fingerprint: "13480c8a2f2f713523438561db89cd7f6a31a0b5a5dbccea98a0f7d5f5902bf0",
			trace:       "cbddb81aa926482c2e4053b7aafee808d5c18db25450e6159a59fadcde653545",
			order:       "a3fab90c026835b00fe9d5f39c233b771aaaa4d5face15d9129a026a407c6cee",
		}},
	} {
		tc := tc
		t.Run(tc.proto, func(t *testing.T) {
			t.Parallel()
			checkScalePin(t, "gen-field-80-3", tc.proto, tc.minJoin, tc.pin)
		})
	}
}

// TestScaleSnapshotRoundTrip10k takes a snapshot of a 10k-node run
// mid-flight, restores it into a fresh build, and checks both
// continuations are bit-identical: checkpointing composes with the sparse
// medium at scale.
func TestScaleSnapshotRoundTrip10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node run")
	}
	build := func() *Scenario {
		sc, err := Build(Params{
			TopologyName: "gen-plant-10000",
			Protocol:     core.Protocol,
			Seed:         7,
		})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return sc
	}
	fingerprint := func(sc *Scenario) string {
		var fp bytes.Buffer
		fmt.Fprintf(&fp, "asn=%d joined=%d\n", sc.NW.ASN(), sc.Joined())
		for i := 1; i <= sc.NW.Topology().N(); i++ {
			st := sc.MACNode(i).Stats()
			fmt.Fprintf(&fp, "%d e=%x slots=%d tx=%d/%d rx=%d\n",
				i, math.Float64bits(st.EnergyJoules), st.Slots, st.TxData, st.TxControl, st.RxFrames)
		}
		return fp.String()
	}

	orig := build()
	orig.NW.Run(2000)
	snap, err := orig.Take("midflight", nil)
	if err != nil {
		t.Fatalf("take: %v", err)
	}
	wire, err := snapshot.Encode(snap)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := snapshot.Decode(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	resumed := build()
	if err := resumed.Restore(back); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, want := fingerprint(resumed), fingerprint(orig); got != want {
		t.Fatalf("restored state diverges before stepping:\n%s", firstDiff(want, got))
	}
	orig.NW.Run(1000)
	resumed.NW.Run(1000)
	if got, want := fingerprint(resumed), fingerprint(orig); got != want {
		t.Fatalf("continuations diverge (straight vs from snapshot):\n%s", firstDiff(want, got))
	}
}

func firstDiff(a, b string) string {
	la, lb := len(a), len(b)
	n := la
	if lb < n {
		n = lb
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+80, i+80
			if hiA > la {
				hiA = la
			}
			if hiB > lb {
				hiB = lb
			}
			return fmt.Sprintf("at byte %d:\n  a: …%s…\n  b: …%s…", i, a[lo:hiA], b[lo:hiB])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d", la, lb)
}
