package snapshot_test

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"github.com/digs-net/digs/internal/controller"
	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/link"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/orchestra"
	"github.com/digs-net/digs/internal/rpl"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/whart"
	"github.com/digs-net/digs/internal/wire"
)

// narrow is how many entries each table of TestNarrowestEntriesDecode
// carries. It exceeds the bytes that can follow any table in its section
// (a few dozen at most), so a minimum element width that over-claims by a
// single byte makes the decoder's count-against-remaining-input bound
// refuse the table.
const narrow = 64

func rep[T any](v T) []T {
	out := make([]T, narrow)
	for i := range out {
		out[i] = v
	}
	return out
}

// synthSparse is a whart snapshot (no stack section) of a sparse-medium
// network: the version-2 fields of the "net" section — fade pairs and nap
// vectors — and no dense Fade overlay.
func synthSparse() *snapshot.Snapshot {
	s := &snapshot.Snapshot{Meta: testMeta(whart.Protocol, 3), Net: testNet(3), MACs: testMACs(3)}
	s.Net.DriftProb = []float64{0, 0, 0.01, 0}
	s.Net.DriftSeed = []uint64{0, 0, 9, 0}
	s.Net.FadeLinkIdx = []int32{4, 1 << 20}
	s.Net.FadeLinkVal = []float64{6, 2.5}
	s.Net.NapUntil = []int64{0, 1300, 0, 1250}
	s.Net.NapStart = []int64{0, 1200, 0, 1234}
	return s
}

func TestRoundTripSparse(t *testing.T) { roundTrip(t, synthSparse()) }

// TestNarrowestEntriesDecode: every counted table of the format, filled
// with `narrow` entries of the narrowest wire form an entry can take and
// placed last in its section (in the last node's state, for per-node
// tables), round-trips. Each table's minimum element width is stated once,
// in its layout; this is the check that none of them claims more than the
// narrowest entry occupies — a snapshot Encode wrote is one Decode reads.
func TestNarrowestEntriesDecode(t *testing.T) {
	const nodes = 2
	base := func(proto string) *snapshot.Snapshot {
		return &snapshot.Snapshot{Meta: testMeta(proto, nodes), Net: testNet(nodes), MACs: testMACs(nodes)}
	}
	whartSnap := func(edit func(*snapshot.Snapshot)) *snapshot.Snapshot {
		s := base(whart.Protocol)
		edit(s)
		return s
	}
	net := func(edit func(*sim.NetworkState)) *snapshot.Snapshot {
		return whartSnap(func(s *snapshot.Snapshot) { edit(s.Net) })
	}
	lastMAC := func(edit func(*mac.NodeState)) *snapshot.Snapshot {
		return whartSnap(func(s *snapshot.Snapshot) { edit(s.MACs[nodes]) })
	}
	allNil := func(proto string) *snapshot.Snapshot {
		s := base(proto)
		s.Meta.Nodes = narrow
		s.MACs = make([]*mac.NodeState, narrow+1)
		return s
	}
	// A neighbour entry's narrowest form: one-byte node, rank and
	// last-heard around an 8-byte float.
	digsNeighbor := core.NeighborState{Node: 1, Rank: 1, ETXw: 1, LastHeard: 5}
	rplNeighbor := rpl.NeighborState{Node: 1, Rank: 1, PathETX: 1, LastHeard: 5}

	for _, tc := range []struct {
		table string
		snap  *snapshot.Snapshot
	}{
		{"meta.Extra", whartSnap(func(s *snapshot.Snapshot) {
			s.Meta.Extra = map[string]string{}
			for i := 0; i < narrow; i++ {
				s.Meta.Extra[string(rune('0'+i))] = ""
			}
		})},
		{"net.Failed", net(func(n *sim.NetworkState) { n.Failed = rep(false) })},
		{"net.Fade", net(func(n *sim.NetworkState) { n.Fade = rep(0.0) })},
		{"net.Drift", net(func(n *sim.NetworkState) { n.DriftProb, n.DriftSeed = rep(0.0), rep(uint64(0)) })},
		{"net.FadeLink", net(func(n *sim.NetworkState) { n.FadeLinkIdx, n.FadeLinkVal = rep(int32(0)), rep(0.0) })},
		{"net.Nap", net(func(n *sim.NetworkState) { n.NapUntil, n.NapStart = rep(int64(0)), rep(int64(0)) })},

		{"mac (nil entries)", allNil(whart.Protocol)},
		{"mac.Queue", lastMAC(func(n *mac.NodeState) { n.Queue = rep(mac.PacketState{}) })},
		{"mac.DownQueue", lastMAC(func(n *mac.NodeState) { n.DownQueue = rep(mac.PacketState{}) })},
		{"mac.Seen", lastMAC(func(n *mac.NodeState) { n.Seen = rep(mac.SeenKeyState{}) })},
		{"mac.Queue.Frame.Route", lastMAC(func(n *mac.NodeState) {
			n.Queue = []mac.PacketState{{Frame: mac.FrameState{Route: rep(topology.NodeID(1))}}}
		})},

		{"stack (nil entries)", func() *snapshot.Snapshot {
			s := allNil(core.Protocol)
			s.Stack = make([]stack.State, narrow+1)
			return s
		}()},
		{"digs.Router.Neighbors", lastStack(base(core.Protocol), func(st *core.StackState) { st.Router.Neighbors = rep(digsNeighbor) })},
		{"digs.Router.Children", lastStack(base(core.Protocol), func(st *core.StackState) { st.Router.Children = rep(core.ChildState{}) })},
		{"digs.Router.Links", lastStack(base(core.Protocol), func(st *core.StackState) { st.Router.Links = rep(link.LinkState{}) })},
		{"digs.Pending", lastStack(base(core.Protocol), func(st *core.StackState) { st.Pending = rep(core.PendingCallbackState{}) })},

		{"orch.Router.Neighbors", lastStack(base(orchestra.Protocol), func(st *orchestra.StackState) { st.Router.Neighbors = rep(rplNeighbor) })},
		{"orch.Router.Links", lastStack(base(orchestra.Protocol), func(st *orchestra.StackState) { st.Router.Links = rep(link.LinkState{}) })},
		{"orch.ChildCells", lastStack(base(orchestra.Protocol), func(st *orchestra.StackState) {
			st.HasChildCells, st.ChildCells = true, rep(rpl.ChildCellState{})
		})},

		{"adpt.Router.Neighbors", lastStack(base(controller.AdaptiveProtocol), func(st *controller.AdaptiveStackState) { st.Router.Neighbors = rep(rplNeighbor) })},
		{"adpt.NeighborCells", lastStack(base(controller.AdaptiveProtocol), func(st *controller.AdaptiveStackState) {
			st.HasNeighborCells, st.NeighborCells = true, rep(controller.AdaptiveCellState{})
		})},
		{"adpt.ChildCells", lastStack(base(controller.AdaptiveProtocol), func(st *controller.AdaptiveStackState) {
			st.HasChildCells, st.ChildCells = true, rep(rpl.ChildCellState{})
		})},

		{"sdn.Hops", lastStack(base(controller.SDNProtocol), func(st *controller.SDNStackState) { st.HasHops, st.Hops = true, rep(controller.SDNHopsState{}) })},
		{"sdn.RSS", lastStack(base(controller.SDNProtocol), func(st *controller.SDNStackState) { st.HasRSS, st.RSS = true, rep(controller.SDNRSSState{}) })},
		{"sdn.Children", lastStack(base(controller.SDNProtocol), func(st *controller.SDNStackState) { st.Children = rep(topology.NodeID(1)) })},
		{"sdn.CtrlQ", lastStack(base(controller.SDNProtocol), func(st *controller.SDNStackState) { st.CtrlQ = rep(controller.SDNCtrlState{}) })},
		{"sdn.Reports", lastStack(base(controller.SDNProtocol), func(st *controller.SDNStackState) { st.Reports = rep(controller.SDNReportState{}) })},
		{"sdn.Reports.Neigh", lastStack(base(controller.SDNProtocol), func(st *controller.SDNStackState) {
			st.Reports = []controller.SDNReportState{{Neigh: rep(controller.SDNReportNeighbor{})}}
		})},
		{"sdn.LastSent", lastStack(base(controller.SDNProtocol), func(st *controller.SDNStackState) { st.LastSent = rep(controller.SDNSentState{}) })},
		{"sdn.LastSent.Children", lastStack(base(controller.SDNProtocol), func(st *controller.SDNStackState) {
			st.LastSent = []controller.SDNSentState{{Children: rep(topology.NodeID(1))}}
		})},
	} {
		tc := tc
		t.Run(tc.table, func(t *testing.T) { roundTrip(t, tc.snap) })
	}
}

// lastStack gives every node of the snapshot a zero stack state of type S
// and applies edit to the last node's, the one that ends the section.
func lastStack[S any, P interface {
	*S
	comparable
	stack.State
}](s *snapshot.Snapshot, edit func(P)) *snapshot.Snapshot {
	sts := make([]P, s.Meta.Nodes+1)
	for i := 1; i < len(sts); i++ {
		sts[i] = new(S)
	}
	edit(sts[len(sts)-1])
	s.Stack = states(sts)
	return s
}

// section is one tagged payload of the container.
type section struct {
	tag     string
	payload []byte
}

// unframe splits an encoded snapshot into its sections.
func unframe(t *testing.T, b []byte) []section {
	t.Helper()
	r := wire.NewReader(b[len(magic) : len(b)-4])
	r.U64() // version
	var out []section
	for {
		tag := r.Str()
		if tag == "" {
			break
		}
		out = append(out, section{tag, r.Bytes()})
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("unframe: %v, %d bytes left", r.Err(), r.Remaining())
	}
	return out
}

// frame writes a container by hand: magic, version, sections, terminator,
// checksum.
func frame(ver uint64, secs []section) []byte {
	w := &wire.Writer{Buf: []byte(magic)}
	w.U64(ver)
	for _, s := range secs {
		w.Str(s.tag)
		w.Bytes(s.payload)
	}
	w.Str("")
	return binary.BigEndian.AppendUint32(w.Buf, crc32.ChecksumIEEE(w.Buf))
}

// legacyMAC writes the "mac" section in the layout of versions 1 to 3: each
// node's state carries the broadcast relay and the transmit watchdog after
// DownSeq, and three more counters among its Stats. The retired fields are
// written non-zero, so a decoder that kept any of them would show it.
func legacyMAC(nodes []*mac.NodeState) []byte {
	var w wire.Writer
	c := wire.Encoder(&w)
	packets := func(q []mac.PacketState) {
		w.U64(uint64(len(q)))
		for _, p := range q {
			p.Frame.Code(c)
			w.Int(p.TxCount)
			w.U64(uint64(p.From))
			w.Int(p.Blocked)
		}
	}
	w.U64(uint64(len(nodes)))
	for _, st := range nodes {
		w.Bool(st != nil)
		if st == nil {
			continue
		}
		w.Bool(st.Synced)
		w.I64(st.SyncedAt)
		w.I64(st.LastRx)
		packets(st.Queue)
		packets(st.DownQueue)
		w.U64(uint64(len(st.Seen)))
		for _, k := range st.Seen {
			w.U64(uint64(k.Origin))
			w.U16(k.Flow)
			w.U16(k.Seq)
		}
		w.U16(st.DownSeq)
		w.U16(5)          // bulletin sequence
		w.U64(0xDEADBEEF) // persistence coin
		w.Bool(true)      // a bulletin in relay, with its repeats left
		bulletin := mac.FrameState{Kind: 5, Origin: 1, Seq: 9, Route: []topology.NodeID{2}, Payload: []byte("hi")}
		bulletin.Code(c)
		w.Int(2)
		w.U64(2) // watchdog destination
		w.Int(1) // watchdog failures
		s := st.Stats
		w.Float(s.EnergyJoules)
		for _, v := range []int64{int64(s.RadioOnTime), s.Slots, s.TxData, s.TxControl, s.RxFrames,
			s.Generated, s.Forwarded, s.SinkDelivered, s.CommandsDelivered,
			6, // bulletins delivered
			s.DroppedQueue, s.DroppedRetries, s.Duplicates,
			3, // evicted
			4, // watchdog requeues
		} {
			w.I64(v)
		}
	}
	return w.Buf
}

// TestDecodeOlderVersions: the decoder reads versions 1 to 4. Version 1's
// "net" section ends before the scale engine's tail, and versions 1 to 3
// lay the "mac" section out with the retired fields (legacyMAC). Each older
// file decodes to what was encoded, less the retired fields; a body under
// another version's number is refused — the version gate is live in both
// directions, at both layout changes.
func TestDecodeOlderVersions(t *testing.T) {
	// older re-frames a snapshot's sections with the version 1-3 "mac".
	older := func(s *snapshot.Snapshot) []section {
		b, err := snapshot.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		secs := unframe(t, b)
		for i := range secs {
			if secs[i].tag == "mac" {
				secs[i].payload = legacyMAC(s.MACs)
			}
		}
		return secs
	}
	decodes := func(ver uint64, secs []section, want *snapshot.Snapshot) *snapshot.Snapshot {
		t.Helper()
		got, err := snapshot.Decode(frame(ver, secs))
		if err != nil {
			t.Fatalf("version %d: %v", ver, err)
		}
		if d := snapshot.Diff(want, got); len(d) != 0 {
			t.Fatalf("version %d decoded differently:\n%v", ver, d)
		}
		return got
	}
	refused := func(what string, ver uint64, secs []section, tag string) {
		t.Helper()
		if _, err := snapshot.Decode(frame(ver, secs)); err == nil || !strings.Contains(err.Error(), `section "`+tag+`"`) {
			t.Fatalf("%s labelled version %d: %v", what, ver, err)
		}
	}

	// Version 1: a dense network, whose version-2 tail is two absent
	// flags. Cutting them off the "net" payload is the version-1 layout.
	dense := synthWHART()
	withTail := older(dense)
	var noTail []section
	for _, s := range withTail {
		if s.tag == "net" {
			s.payload = s.payload[:len(s.payload)-2]
		}
		noTail = append(noTail, s)
	}
	decodes(1, noTail, dense)
	refused("a version-1 net section", 2, noTail, "net")
	refused("a version-2 net section", 1, withTail, "net")

	// Version 2: the tail carries fade pairs and nap vectors.
	sparse := synthSparse()
	if v2 := decodes(2, older(sparse), sparse); v2.Net.NapUntil == nil || v2.Net.FadeLinkIdx == nil {
		t.Fatal("version 2 decoded without its tail")
	}
	refused("a populated version-2 net section", 1, older(sparse), "net")

	// Version 3 adds the controller-layer stack sections; version 4 drops
	// the retired "mac" fields.
	for _, s := range []*snapshot.Snapshot{synthDiGS(), synthSDN()} {
		decodes(3, older(s), s)
		refused("a version-3 mac section", 4, older(s), "mac")
		b, err := snapshot.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		refused("a version-4 mac section", 3, unframe(t, b), "mac")
	}
}

// TestCorruptStackSectionFailsInDecode: the stack section is decoded in
// full, through the stack's own layout, before Decode returns — a file
// whose container and checksum are sound but whose stack payload is not
// never reaches Restore (which is what lets the cache call a corrupt entry
// a miss).
func TestCorruptStackSectionFailsInDecode(t *testing.T) {
	for _, synth := range []func() *snapshot.Snapshot{synthDiGS, synthOrchestra, synthSDN, synthAdaptive} {
		s := synth()
		b, err := snapshot.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		codec, _ := stack.Lookup(s.Meta.Protocol)
		for name, corrupt := range map[string]func([]byte) []byte{
			"short": func(p []byte) []byte { return p[:len(p)-1] },
			"long":  func(p []byte) []byte { return append(p, 0) },
			"count": func(p []byte) []byte { return append([]byte{200}, p[1:]...) },
		} {
			secs := unframe(t, b)
			for i := range secs {
				if secs[i].tag == codec.Section {
					secs[i].payload = corrupt(secs[i].payload)
				}
			}
			_, err := snapshot.Decode(frame(snapshot.Version, secs))
			if err == nil || !strings.Contains(err.Error(), "section \""+codec.Section+"\"") {
				t.Errorf("%s, %s stack payload: %v", s.Meta.Protocol, name, err)
			}
		}
	}
}
