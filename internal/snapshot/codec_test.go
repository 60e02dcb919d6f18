package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/link"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/orchestra"
	"github.com/digs-net/digs/internal/rpl"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/trickle"
	"github.com/digs-net/digs/internal/whart"
	"github.com/digs-net/digs/internal/wire"
)

// magic is the wire format's leading bytes.
const magic = "DIGSSNAP"

// states erases a typed per-node state slice into the snapshot's stack
// section, keeping nil entries nil.
func states[T interface {
	comparable
	stack.State
}](typed []T) []stack.State {
	var zero T
	out := make([]stack.State, len(typed))
	for i, st := range typed {
		if st != zero {
			out[i] = st
		}
	}
	return out
}

// synthDiGS builds a synthetic DiGS snapshot exercising every optional
// branch of the wire format: fade and drift overlays, queued packets with
// routes and payloads, pending callbacks and link tables.
func synthDiGS() *snapshot.Snapshot {
	nodes := 3
	macs := make([]*mac.NodeState, nodes+1)
	stacks := make([]*core.StackState, nodes+1)
	for i := 1; i <= nodes; i++ {
		macs[i] = &mac.NodeState{
			Synced: true, SyncedAt: int64(10 * i), LastRx: int64(100 * i),
			Queue: []mac.PacketState{{
				Frame: mac.FrameState{Kind: 2, Src: 1, Dst: 2, Seq: uint16(i),
					Origin: 3, FlowID: 7, BornASN: 555,
					Route: []topology.NodeID{1, 2, 3}, Payload: []byte{1, 2, 3}},
				TxCount: 1, From: 1, Blocked: 2,
			}},
			Seen:    []mac.SeenKeyState{{Origin: 3, Flow: 7, Seq: 1}, {Origin: 3, Flow: 0xFFFF, Seq: 2}},
			DownSeq: 4,
			Stats:   mac.Stats{EnergyJoules: 1.5, RadioOnTime: 3 * time.Second, TxData: 42},
		}
		stacks[i] = &core.StackState{
			Router: core.RouterState{
				Rank: uint16(i), ETXw: 1.25, Best: 1, Second: 2,
				ETXaBest: 1.0, ETXaSecond: 2.0,
				Neighbors: []core.NeighborState{{Node: 1, Rank: 0, ETXw: 1, LastHeard: 50}},
				Children:  []core.ChildState{{Node: 2, Role: 1, LastHeard: 60}},
				Links: []link.LinkState{{Node: 1, ETX: 1.1, RSSAvg: -70,
					ConsecFails: 1, TxSeen: true, ResurrectCount: 2}},
				FirstParentAt: 120, HasParentedAt: true, ParentChanges: 3, ChildVersion: 4,
			},
			Trickle:  trickle.State{Interval: 100, IntervalStart: 400, FireAt: 450, Counter: 1, Started: true},
			RNGDraws: 987,
			Pending:  []core.PendingCallbackState{{To: 1, Role: 1, Tries: 2}},
			Synced:   true, NextMaintain: 700, NextSolicit: 900,
			LastBest: 1, LastSecond: 2, BestConfirmed: true, FallbackParent: 1,
		}
	}
	macs[1].Queue[0].Frame.Route = nil

	return &snapshot.Snapshot{
		Meta: snapshot.Meta{
			Protocol: core.Protocol, Topology: "testbed-x", Nodes: nodes, NumAPs: 1,
			Seed: 42, Slot: 12345, ConfigHash: 0xABCDEF, Label: "formed+30s",
			Extra: map[string]string{"formed_slots": "8000", "period": "5s"},
		},
		Net: &sim.NetworkState{
			Seed: 42, ASN: 12345, Started: true, EventSeq: 17, RNGDraws: 999,
			FastFadingSigmaDB: 2.0,
			Failed:            []bool{false, false, true, false},
			Fade:              []float64{0, 1.5, 0, 2.5, 0, 0},
			DriftProb:         []float64{0, 0.001, 0.002, 0},
			DriftSeed:         []uint64{0, 7, 8, 9},
		},
		MACs:  macs,
		Stack: states(stacks),
	}
}

func synthOrchestra() *snapshot.Snapshot {
	s := synthDiGS()
	s.Meta.Protocol = orchestra.Protocol
	stacks := make([]*orchestra.StackState, s.Meta.Nodes+1)
	for i := 1; i <= s.Meta.Nodes; i++ {
		stacks[i] = &orchestra.StackState{NodeState: rpl.NodeState{
			Router: rpl.RouterState{
				Rank: uint16(i), PathETX: 1.5, Parent: 1,
				Neighbors:     []rpl.NeighborState{{Node: 1, Rank: 0, PathETX: 1, LastHeard: 80}},
				Links:         []link.LinkState{{Node: 1, ETX: 1.2, RSSAvg: -72}},
				FirstParentAt: 130, HasParentedAt: true, ParentChanges: 2,
			},
			Trickle:  trickle.State{Interval: 200, FireAt: 500, Started: true},
			RNGDraws: 321,
			WantDIO:  true, NextMaintain: 650, Synced: true,
		}}
	}
	// Exercise all three listen-cell table shapes: never refreshed (nil),
	// refreshed empty, and populated.
	stacks[2].HasChildCells = true
	stacks[3].HasChildCells = true
	stacks[3].ChildCells = []rpl.ChildCellState{{Slot: 4, Node: 2}, {Slot: 9, Node: 1}}
	s.Stack = states(stacks)
	return s
}

func synthWHART() *snapshot.Snapshot {
	s := synthDiGS()
	s.Meta.Protocol = whart.Protocol
	s.Stack = nil
	return s
}

func roundTrip(t *testing.T, s *snapshot.Snapshot) {
	t.Helper()
	b1, err := snapshot.Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := snapshot.Decode(b1)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d := snapshot.Diff(s, dec); len(d) != 0 {
		t.Fatalf("decoded snapshot differs:\n%v", d)
	}
	b2, err := snapshot.Encode(dec)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("re-encoded bytes differ: %d vs %d bytes", len(b1), len(b2))
	}
	for _, tag := range []string{"meta", "net", "mac"} {
		if dec.SectionSizes[tag] == 0 {
			t.Fatalf("section %q has no reported size", tag)
		}
	}
}

func TestRoundTripDiGS(t *testing.T)      { roundTrip(t, synthDiGS()) }
func TestRoundTripOrchestra(t *testing.T) { roundTrip(t, synthOrchestra()) }
func TestRoundTripWHART(t *testing.T)     { roundTrip(t, synthWHART()) }

// TestEncodeOnlyReads: a layout takes pointers into the snapshot in both
// directions, but an encoding walk never writes through them — one
// snapshot encodes from several goroutines at once, to the same bytes. The
// race detector is the judge (`make race`).
func TestEncodeOnlyReads(t *testing.T) {
	for _, s := range []*snapshot.Snapshot{synthDiGS(), synthOrchestra(), synthSDN(), synthAdaptive(), synthSparse()} {
		want, err := snapshot.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, err := snapshot.Encode(s); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s: concurrent encode: %v, %d bytes against %d", s.Meta.Protocol, err, len(got), len(want))
				}
			}()
		}
		wg.Wait()
	}
}

// legacyOrch writes the "orch" layout the way a build that still had the
// receiver-based unicast mode could: a retry backoff in the int that is now
// reserved.
type legacyOrch struct{ *orchestra.StackState }

func (l legacyOrch) Code(c *wire.Coder) {
	l.CodeControl(c)
	backoff := 3
	c.Int(&backoff)
	l.CodeChildCells(c)
}

// TestDecodeReservedOrchInt: the reader drops a non-zero reserved int — the
// decoded states are the ones a zero decodes to, and they re-encode with
// the zero, so encode ∘ decode stays a fixed point for such a file.
func TestDecodeReservedOrchInt(t *testing.T) {
	want, err := snapshot.Encode(synthOrchestra())
	if err != nil {
		t.Fatal(err)
	}
	old := synthOrchestra()
	for i, st := range old.Stack {
		if st != nil {
			old.Stack[i] = legacyOrch{st.(*orchestra.StackState)}
		}
	}
	b, err := snapshot.Encode(old)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b, want) {
		t.Fatal("the legacy writer wrote the current bytes: nothing to show")
	}
	dec, err := snapshot.Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d := snapshot.Diff(synthOrchestra(), dec); len(d) != 0 {
		t.Fatalf("decoded snapshot differs:\n%v", d)
	}
	if again, err := snapshot.Encode(dec); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("re-encode: %v, %d bytes against %d", err, len(again), len(want))
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	b, err := snapshot.Encode(synthDiGS())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(b); n++ {
		if _, err := snapshot.Decode(b[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(b))
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	b, err := snapshot.Encode(synthOrchestra())
	if err != nil {
		t.Fatal(err)
	}
	// Any single-byte flip must be caught — by the checksum at the latest.
	for i := 0; i < len(b); i += 3 {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0x5A
		if _, err := snapshot.Decode(mut); err == nil {
			t.Fatalf("flip at byte %d decoded without error", i)
		}
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	b, err := snapshot.Encode(synthDiGS())
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), b...)
	mut[len(magic)] = snapshot.Version + 1 // single-byte uvarint
	// Recompute the checksum so only the version differs.
	binary.BigEndian.PutUint32(mut[len(mut)-4:], crc32.ChecksumIEEE(mut[:len(mut)-4]))
	if _, err := snapshot.Decode(mut); err == nil {
		t.Fatal("future format version decoded without error")
	}
}

func TestDiffReportsDivergence(t *testing.T) {
	a, b := synthDiGS(), synthDiGS()
	if d := snapshot.Diff(a, b); len(d) != 0 {
		t.Fatalf("identical snapshots diff: %v", d)
	}
	b.MACs[2].DownSeq++
	b.Stack[1].(*core.StackState).Router.Rank = 99
	d := snapshot.Diff(a, b)
	if len(d) != 2 {
		t.Fatalf("want 2 diff lines, got %d: %v", len(d), d)
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c := &snapshot.Cache{Dir: t.TempDir()}
	s := synthDiGS()
	k := snapshot.Key{Topology: s.Meta.Topology, Protocol: s.Meta.Protocol, Seed: s.Meta.Seed,
		ConfigHash: s.Meta.ConfigHash, Label: s.Meta.Label}

	if got, err := c.Load(k); err != nil || got != nil {
		t.Fatalf("miss on empty cache: %v, %v", got, err)
	}
	if err := c.Store(k, s); err != nil {
		t.Fatalf("store: %v", err)
	}
	got, err := c.Load(k)
	if err != nil || got == nil {
		t.Fatalf("load after store: %v, %v", got, err)
	}
	if d := snapshot.Diff(s, got); len(d) != 0 {
		t.Fatalf("cached snapshot differs: %v", d)
	}
	other := k
	other.Seed++
	if got, err := c.Load(other); err != nil || got != nil {
		t.Fatalf("different seed must miss: %v, %v", got, err)
	}
	if err := c.Store(other, s); err == nil {
		t.Fatal("store under mismatched key must fail")
	}
}
