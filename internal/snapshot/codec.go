package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"time"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/store"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/wire"
)

// Wire layout: an 8-byte magic, a uvarint format version, a sequence of
// tagged length-prefixed sections terminated by an empty tag, and a CRC-32
// (IEEE) of everything preceding it. Sections are self-describing enough
// for tooling to size them without decoding; the decoder rejects unknown
// versions, unknown tags, duplicate or missing sections, trailing garbage
// and any checksum mismatch — and never panics on malformed input.
const (
	magic = "DIGSSNAP"
	// Version is the current wire format version. Bump it on any layout
	// change; decoders reject versions they do not know. Version 2 added
	// the scale engine's network-state fields (sparse fade pairs and nap
	// vectors); version 3 added the controller-layer stack sections (sdn,
	// adpt). Older snapshots still decode (they predate those features,
	// so the added fields and sections are simply absent).
	Version = 3
)

// Section tags. The protocol stack's section is tagged by its registered
// stack.Codec.
const (
	secMeta    = "meta"
	secNet     = "net"
	secMAC     = "mac"
	secMetrics = "metrics"
)

// Encode serialises a snapshot to its wire form.
func Encode(s *Snapshot) ([]byte, error) {
	codec, ok := stack.Lookup(s.Meta.Protocol)
	if !ok {
		return nil, fmt.Errorf("snapshot: encode unknown protocol %q", s.Meta.Protocol)
	}
	if s.Net == nil {
		return nil, fmt.Errorf("snapshot: encode without network state")
	}

	w := &wire.Writer{Buf: make([]byte, 0, 1<<16)}
	w.Buf = append(w.Buf, magic...)
	w.U64(Version)

	section := func(tag string, body func(*wire.Writer)) {
		var sw wire.Writer
		body(&sw)
		w.Str(tag)
		w.Bytes(sw.Buf)
	}

	section(secMeta, func(sw *wire.Writer) { encodeMeta(sw, &s.Meta) })
	section(secNet, func(sw *wire.Writer) { encodeNet(sw, s.Net) })
	section(secMAC, func(sw *wire.Writer) { encodeMACs(sw, s.MACs) })
	if codec.Section != "" {
		section(codec.Section, func(sw *wire.Writer) { stack.AppendStates(sw, s.Stack) })
	}
	if s.Metrics != nil {
		section(secMetrics, func(sw *wire.Writer) { encodeCollector(sw, s.Metrics) })
	}
	w.Str("") // terminator
	w.Buf = binary.BigEndian.AppendUint32(w.Buf, crc32.ChecksumIEEE(w.Buf))
	return w.Buf, nil
}

// Decode parses a wire-form snapshot. It is safe on arbitrary input:
// corrupt, truncated or version-skewed data returns an error, never a
// panic. The stack section is decoded in full through the registered
// codec, so a snapshot that decodes is one that restores.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < len(magic)+1+4 {
		return nil, fmt.Errorf("snapshot: %d bytes is too short", len(b))
	}
	if string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic")
	}
	body, sum := b[:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("snapshot: checksum mismatch (stored %08x, computed %08x)", sum, got)
	}

	r := wire.NewReader(body[len(magic):])
	ver := r.U64()
	if r.Err() == nil && (ver < 1 || ver > Version) {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads <= %d", ver, Version)
	}

	s := &Snapshot{SectionSizes: make(map[string]int)}
	seen := make(map[string]bool)
	stackTag := ""
	for r.Err() == nil {
		tag := r.Str()
		if r.Err() != nil || tag == "" {
			break
		}
		payload := r.Bytes()
		if r.Err() != nil {
			break
		}
		if seen[tag] {
			return nil, fmt.Errorf("snapshot: duplicate section %q", tag)
		}
		seen[tag] = true
		s.SectionSizes[tag] = len(payload)
		sr := wire.NewReader(payload)
		switch tag {
		case secMeta:
			decodeMeta(sr, &s.Meta)
		case secNet:
			s.Net = decodeNet(sr, ver)
		case secMAC:
			s.MACs = decodeMACs(sr)
		case secMetrics:
			s.Metrics = decodeCollector(sr)
		default:
			codec, ok := stack.LookupSection(tag)
			if !ok {
				return nil, fmt.Errorf("snapshot: unknown section %q", tag)
			}
			if stackTag != "" {
				return nil, fmt.Errorf("snapshot: stack sections %q and %q in one snapshot", stackTag, tag)
			}
			stackTag = tag
			s.Stack = stack.ReadStates(sr, codec.Read)
		}
		if err := sr.Err(); err != nil {
			return nil, fmt.Errorf("snapshot: section %q: %w", tag, err)
		}
		if sr.Remaining() != 0 {
			return nil, fmt.Errorf("snapshot: section %q has %d trailing bytes", tag, sr.Remaining())
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after terminator", r.Remaining())
	}
	return s, validate(s, seen, stackTag)
}

// validate enforces cross-section consistency after a structurally sound
// decode.
func validate(s *Snapshot, seen map[string]bool, stackTag string) error {
	for _, tag := range []string{secMeta, secNet, secMAC} {
		if !seen[tag] {
			return fmt.Errorf("snapshot: missing section %q", tag)
		}
	}
	if s.Meta.Nodes < 1 || s.Meta.Nodes > 1<<20 {
		return fmt.Errorf("snapshot: implausible node count %d", s.Meta.Nodes)
	}
	if len(s.MACs) != s.Meta.Nodes+1 {
		return fmt.Errorf("snapshot: %d MAC entries for %d nodes", len(s.MACs), s.Meta.Nodes)
	}
	codec, ok := stack.Lookup(s.Meta.Protocol)
	if !ok {
		return fmt.Errorf("snapshot: unknown protocol %q", s.Meta.Protocol)
	}
	if stackTag != codec.Section {
		return fmt.Errorf("snapshot: %s snapshot with stack section %q, want %q",
			s.Meta.Protocol, stackTag, codec.Section)
	}
	if codec.Section != "" && len(s.Stack) != s.Meta.Nodes+1 {
		return fmt.Errorf("snapshot: %d stack entries for %d nodes", len(s.Stack), s.Meta.Nodes)
	}
	return nil
}

// WriteFile atomically writes the snapshot next to its final path (see
// store.WriteFileAtomic: concurrent writers on one path cannot interleave).
func WriteFile(path string, s *Snapshot) error {
	b, err := Encode(s)
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(path, b)
}

// ReadFile loads and decodes a snapshot file.
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// --- meta ---

func encodeMeta(w *wire.Writer, m *Meta) {
	w.Str(m.Protocol)
	w.Str(m.Topology)
	w.Int(m.Nodes)
	w.Int(m.NumAPs)
	w.I64(m.Seed)
	w.I64(m.Slot)
	w.U64(m.ConfigHash)
	w.Str(m.Label)
	keys := make([]string, 0, len(m.Extra))
	for k := range m.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.Str(k)
		w.Str(m.Extra[k])
	}
}

func decodeMeta(r *wire.Reader, m *Meta) {
	m.Protocol = r.Str()
	m.Topology = r.Str()
	m.Nodes = r.Int()
	m.NumAPs = r.Int()
	m.Seed = r.I64()
	m.Slot = r.I64()
	m.ConfigHash = r.U64()
	m.Label = r.Str()
	if n := r.Count(2); n > 0 {
		m.Extra = make(map[string]string, n)
		for i := 0; i < n; i++ {
			k := r.Str()
			m.Extra[k] = r.Str()
		}
	}
}

// --- sim network ---

func encodeNet(w *wire.Writer, st *sim.NetworkState) {
	w.I64(st.Seed)
	w.I64(st.ASN)
	w.Bool(st.Started)
	w.U64(st.EventSeq)
	w.U64(st.RNGDraws)
	w.Float(st.FastFadingSigmaDB)
	w.U64(uint64(len(st.Failed)))
	for _, f := range st.Failed {
		w.Bool(f)
	}
	w.Bool(st.Fade != nil)
	if st.Fade != nil {
		w.U64(uint64(len(st.Fade)))
		for _, f := range st.Fade {
			w.Float(f)
		}
	}
	w.Bool(st.DriftProb != nil)
	if st.DriftProb != nil {
		w.U64(uint64(len(st.DriftProb)))
		for _, p := range st.DriftProb {
			w.Float(p)
		}
		for _, s := range st.DriftSeed {
			w.U64(s)
		}
	}
	// Version 2: scale-engine state.
	w.Bool(st.FadeLinkIdx != nil)
	if st.FadeLinkIdx != nil {
		w.U64(uint64(len(st.FadeLinkIdx)))
		for _, i := range st.FadeLinkIdx {
			w.U64(uint64(uint32(i)))
		}
		for _, v := range st.FadeLinkVal {
			w.Float(v)
		}
	}
	w.Bool(st.NapUntil != nil)
	if st.NapUntil != nil {
		w.U64(uint64(len(st.NapUntil)))
		for _, v := range st.NapUntil {
			w.I64(v)
		}
		for _, v := range st.NapStart {
			w.I64(v)
		}
	}
}

func decodeNet(r *wire.Reader, ver uint64) *sim.NetworkState {
	st := &sim.NetworkState{}
	st.Seed = r.I64()
	st.ASN = r.I64()
	st.Started = r.Bool()
	st.EventSeq = r.U64()
	st.RNGDraws = r.U64()
	st.FastFadingSigmaDB = r.Float()
	if n := r.Count(1); n > 0 {
		st.Failed = make([]bool, n)
		for i := range st.Failed {
			st.Failed[i] = r.Bool()
		}
	}
	if r.Bool() {
		n := r.Count(8)
		st.Fade = make([]float64, n)
		for i := range st.Fade {
			st.Fade[i] = r.Float()
		}
	}
	if r.Bool() {
		n := r.Count(9)
		st.DriftProb = make([]float64, n)
		for i := range st.DriftProb {
			st.DriftProb[i] = r.Float()
		}
		st.DriftSeed = make([]uint64, n)
		for i := range st.DriftSeed {
			st.DriftSeed[i] = r.U64()
		}
	}
	if ver >= 2 {
		if r.Bool() {
			n := r.Count(9)
			st.FadeLinkIdx = make([]int32, n)
			for i := range st.FadeLinkIdx {
				st.FadeLinkIdx[i] = int32(uint32(r.U64()))
			}
			st.FadeLinkVal = make([]float64, n)
			for i := range st.FadeLinkVal {
				st.FadeLinkVal[i] = r.Float()
			}
		}
		if r.Bool() {
			n := r.Count(2)
			st.NapUntil = make([]int64, n)
			for i := range st.NapUntil {
				st.NapUntil[i] = r.I64()
			}
			st.NapStart = make([]int64, n)
			for i := range st.NapStart {
				st.NapStart[i] = r.I64()
			}
		}
	}
	return st
}

// --- mac nodes ---

func encodePackets(w *wire.Writer, ps []mac.PacketState) {
	w.U64(uint64(len(ps)))
	for i := range ps {
		ps[i].Frame.AppendTo(w)
		w.Int(ps[i].TxCount)
		w.U64(uint64(ps[i].From))
		w.Int(ps[i].Blocked)
	}
}

func decodePackets(r *wire.Reader) []mac.PacketState {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]mac.PacketState, n)
	for i := range out {
		out[i].Frame = mac.ReadFrameState(r)
		out[i].TxCount = r.Int()
		out[i].From = topology.NodeID(r.U64())
		out[i].Blocked = r.Int()
	}
	return out
}

func encodeStats(w *wire.Writer, s *mac.Stats) {
	w.Float(s.EnergyJoules)
	w.I64(int64(s.RadioOnTime))
	w.I64(s.Slots)
	w.I64(s.TxData)
	w.I64(s.TxControl)
	w.I64(s.RxFrames)
	w.I64(s.Generated)
	w.I64(s.Forwarded)
	w.I64(s.SinkDelivered)
	w.I64(s.CommandsDelivered)
	w.I64(s.BulletinsDelivered)
	w.I64(s.DroppedQueue)
	w.I64(s.DroppedRetries)
	w.I64(s.Duplicates)
	w.I64(s.Evicted)
	w.I64(s.WatchdogRequeues)
}

func decodeStats(r *wire.Reader) mac.Stats {
	var s mac.Stats
	s.EnergyJoules = r.Float()
	s.RadioOnTime = time.Duration(r.I64())
	s.Slots = r.I64()
	s.TxData = r.I64()
	s.TxControl = r.I64()
	s.RxFrames = r.I64()
	s.Generated = r.I64()
	s.Forwarded = r.I64()
	s.SinkDelivered = r.I64()
	s.CommandsDelivered = r.I64()
	s.BulletinsDelivered = r.I64()
	s.DroppedQueue = r.I64()
	s.DroppedRetries = r.I64()
	s.Duplicates = r.I64()
	s.Evicted = r.I64()
	s.WatchdogRequeues = r.I64()
	return s
}

func encodeNode(w *wire.Writer, st *mac.NodeState) {
	w.Bool(st.Synced)
	w.I64(st.SyncedAt)
	w.I64(st.LastRx)
	encodePackets(w, st.Queue)
	encodePackets(w, st.DownQueue)
	w.U64(uint64(len(st.Seen)))
	for _, k := range st.Seen {
		w.U64(uint64(k.Origin))
		w.U16(k.Flow)
		w.U16(k.Seq)
	}
	w.U16(st.DownSeq)
	w.U16(st.BcastSeq)
	w.U64(st.CoinState)
	w.Bool(st.Bcast != nil)
	if st.Bcast != nil {
		st.Bcast.Frame.AppendTo(w)
		w.Int(st.Bcast.Remaining)
	}
	w.U64(uint64(st.WdDst))
	w.Int(st.WdFails)
	encodeStats(w, &st.Stats)
}

func decodeNode(r *wire.Reader) *mac.NodeState {
	st := &mac.NodeState{}
	st.Synced = r.Bool()
	st.SyncedAt = r.I64()
	st.LastRx = r.I64()
	st.Queue = decodePackets(r)
	st.DownQueue = decodePackets(r)
	if n := r.Count(3); n > 0 {
		st.Seen = make([]mac.SeenKeyState, n)
		for i := range st.Seen {
			st.Seen[i].Origin = topology.NodeID(r.U64())
			st.Seen[i].Flow = r.U16()
			st.Seen[i].Seq = r.U16()
		}
	}
	st.DownSeq = r.U16()
	st.BcastSeq = r.U16()
	st.CoinState = r.U64()
	if r.Bool() {
		b := &mac.BulletinState{}
		b.Frame = mac.ReadFrameState(r)
		b.Remaining = r.Int()
		st.Bcast = b
	}
	st.WdDst = topology.NodeID(r.U64())
	st.WdFails = r.Int()
	st.Stats = decodeStats(r)
	return st
}

func encodeMACs(w *wire.Writer, nodes []*mac.NodeState) {
	w.U64(uint64(len(nodes)))
	for _, n := range nodes {
		w.Bool(n != nil)
		if n != nil {
			encodeNode(w, n)
		}
	}
}

func decodeMACs(r *wire.Reader) []*mac.NodeState {
	n := r.Count(1)
	out := make([]*mac.NodeState, n)
	for i := range out {
		if r.Bool() {
			out[i] = decodeNode(r)
		}
		if r.Err() != nil {
			return nil
		}
	}
	return out
}

// --- metrics ---

func encodeRecords(w *wire.Writer, rs []metrics.PacketRecord) {
	w.U64(uint64(len(rs)))
	for _, rec := range rs {
		w.U16(rec.Flow)
		w.U16(rec.Seq)
		w.I64(rec.ASN)
	}
}

func decodeRecords(r *wire.Reader) []metrics.PacketRecord {
	n := r.Count(3)
	if n == 0 {
		return nil
	}
	out := make([]metrics.PacketRecord, n)
	for i := range out {
		out[i].Flow = r.U16()
		out[i].Seq = r.U16()
		out[i].ASN = r.I64()
	}
	return out
}

func encodeCollector(w *wire.Writer, st *metrics.CollectorState) {
	encodeRecords(w, st.Sent)
	encodeRecords(w, st.Delivered)
	w.I64(st.OutOfWindow)
	w.I64(st.DupDeliveries)
}

func decodeCollector(r *wire.Reader) *metrics.CollectorState {
	st := &metrics.CollectorState{}
	st.Sent = decodeRecords(r)
	st.Delivered = decodeRecords(r)
	st.OutOfWindow = r.I64()
	st.DupDeliveries = r.I64()
	return st
}
