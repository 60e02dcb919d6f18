package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"github.com/digs-net/digs/internal/mac"
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
	// adpt); version 4 dropped the MAC fields of the broadcast slotframe,
	// the drop-oldest queue and the transmit watchdog. Older snapshots
	// still decode: added fields and sections are absent, dropped fields
	// are read and discarded.
	Version = 4
)

// Section tags. The protocol stack's section is tagged by its registered
// stack.Codec.
const (
	secMeta = "meta"
	secNet  = "net"
	secMAC  = "mac"
)

// Encode serialises a snapshot to its wire form.
func Encode(s *Snapshot) ([]byte, error) {
	codec, err := stack.Lookup(s.Meta.Protocol)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encode: %w", err)
	}
	if s.Net == nil {
		return nil, fmt.Errorf("snapshot: encode without network state")
	}

	w := &wire.Writer{Buf: make([]byte, 0, 1<<16)}
	w.Buf = append(w.Buf, magic...)
	w.U64(Version)

	section := func(tag string, body func(*wire.Coder)) {
		var sw wire.Writer
		body(wire.Encoder(&sw))
		w.Str(tag)
		w.Bytes(sw.Buf)
	}

	section(secMeta, func(c *wire.Coder) { codeMeta(c, &s.Meta) })
	section(secNet, func(c *wire.Coder) { codeNet(c, s.Net, Version) })
	section(secMAC, func(c *wire.Coder) { codeMACs(c, &s.MACs, Version) })
	if codec.Section != "" {
		section(codec.Section, func(c *wire.Coder) { stack.CodeStates(c, &s.Stack, codec.New) })
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
		c := wire.Decoder(sr)
		switch tag {
		case secMeta:
			codeMeta(c, &s.Meta)
		case secNet:
			s.Net = &sim.NetworkState{}
			codeNet(c, s.Net, ver)
		case secMAC:
			codeMACs(c, &s.MACs, ver)
		default:
			codec, ok := stack.LookupSection(tag)
			if !ok {
				return nil, fmt.Errorf("snapshot: unknown section %q", tag)
			}
			if stackTag != "" {
				return nil, fmt.Errorf("snapshot: stack sections %q and %q in one snapshot", stackTag, tag)
			}
			stackTag = tag
			stack.CodeStates(c, &s.Stack, codec.New)
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
	codec, err := stack.Lookup(s.Meta.Protocol)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
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

// codeMeta walks the "meta" section: the scenario header, then Extra as a
// table of key/value pairs sorted by key.
func codeMeta(c *wire.Coder, m *Meta) {
	c.Str(&m.Protocol)
	c.Str(&m.Topology)
	c.Int(&m.Nodes)
	c.Int(&m.NumAPs)
	c.I64(&m.Seed)
	c.I64(&m.Slot)
	c.U64(&m.ConfigHash)
	c.Str(&m.Label)
	type pair struct{ k, v string }
	extra := make([]pair, 0, len(m.Extra))
	for k, v := range m.Extra {
		extra = append(extra, pair{k, v})
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i].k < extra[j].k })
	wire.Slice(c, &extra, 2, func(p *pair) {
		c.Str(&p.k)
		c.Str(&p.v)
	})
	if c.Decoding() && len(extra) > 0 {
		m.Extra = make(map[string]string, len(extra))
		for _, p := range extra {
			m.Extra[p.k] = p.v
		}
	}
}

// --- sim network ---

// codeNet walks the "net" section as format version ver lays it out: a
// version-1 section ends before the scale engine's fields. Each optional
// overlay sits behind a presence flag, and parallel vectors share one
// count.
func codeNet(c *wire.Coder, st *sim.NetworkState, ver uint64) {
	c.I64(&st.Seed)
	c.I64(&st.ASN)
	c.Bool(&st.Started)
	c.U64(&st.EventSeq)
	c.U64(&st.RNGDraws)
	c.Float(&st.FastFadingSigmaDB)
	wire.Slice(c, &st.Failed, 1, c.Bool)
	if c.Present(st.Fade != nil) {
		n := c.Len(len(st.Fade), 8)
		wire.Vector(c, &st.Fade, n, c.Float)
	}
	if c.Present(st.DriftProb != nil) {
		n := c.Len(len(st.DriftProb), 9)
		wire.Vector(c, &st.DriftProb, n, c.Float)
		wire.Vector(c, &st.DriftSeed, n, c.U64)
	}
	if ver < 2 {
		return
	}
	// Version 2: scale-engine state.
	if c.Present(st.FadeLinkIdx != nil) {
		n := c.Len(len(st.FadeLinkIdx), 9)
		wire.Vector(c, &st.FadeLinkIdx, n, c.Index32)
		wire.Vector(c, &st.FadeLinkVal, n, c.Float)
	}
	if c.Present(st.NapUntil != nil) {
		n := c.Len(len(st.NapUntil), 2)
		wire.Vector(c, &st.NapUntil, n, c.I64)
		wire.Vector(c, &st.NapStart, n, c.I64)
	}
}

// --- mac nodes ---

// codePackets walks one packet queue.
func codePackets(c *wire.Coder, ps *[]mac.PacketState) {
	wire.Slice(c, ps, 8, func(p *mac.PacketState) {
		p.Frame.Code(c)
		c.Int(&p.TxCount)
		wire.Uvarint(c, &p.From)
		c.Int(&p.Blocked)
	})
}

// codeStats walks one node's counters as format version ver lays them
// out: before version 4 three more counters (bulletins delivered, evicted,
// watchdog requeues) sit among them, which a decode reads and drops.
func codeStats(c *wire.Coder, s *mac.Stats, ver uint64) {
	var retired int64
	c.Float(&s.EnergyJoules)
	c.I64((*int64)(&s.RadioOnTime))
	c.I64(&s.Slots)
	c.I64(&s.TxData)
	c.I64(&s.TxControl)
	c.I64(&s.RxFrames)
	c.I64(&s.Generated)
	c.I64(&s.Forwarded)
	c.I64(&s.SinkDelivered)
	c.I64(&s.CommandsDelivered)
	if ver < 4 {
		c.I64(&retired)
	}
	c.I64(&s.DroppedQueue)
	c.I64(&s.DroppedRetries)
	c.I64(&s.Duplicates)
	if ver < 4 {
		c.I64(&retired)
		c.I64(&retired)
	}
}

// codeNode walks one node's MAC state as format version ver lays it out.
func codeNode(c *wire.Coder, st *mac.NodeState, ver uint64) {
	c.Bool(&st.Synced)
	c.I64(&st.SyncedAt)
	c.I64(&st.LastRx)
	codePackets(c, &st.Queue)
	codePackets(c, &st.DownQueue)
	wire.Slice(c, &st.Seen, 3, func(k *mac.SeenKeyState) {
		wire.Uvarint(c, &k.Origin)
		c.U16(&k.Flow)
		c.U16(&k.Seq)
	})
	c.U16(&st.DownSeq)
	if ver < 4 {
		// The broadcast relay (sequence, coin, the bulletin in flight and
		// its repeats left) and the watchdog (destination, failures): read
		// and dropped.
		var seq uint16
		var coin uint64
		var bulletin mac.FrameState
		var dst topology.NodeID
		var n int
		c.U16(&seq)
		c.U64(&coin)
		if c.Present(false) {
			bulletin.Code(c)
			c.Int(&n)
		}
		wire.Uvarint(c, &dst)
		c.Int(&n)
	}
	codeStats(c, &st.Stats, ver)
}

// codeMACs walks the "mac" section: every node's state, indexed by node
// ID, each behind a presence flag (entry 0 is nil).
func codeMACs(c *wire.Coder, nodes *[]*mac.NodeState, ver uint64) {
	n := c.Len(len(*nodes), 1)
	wire.Vector(c, nodes, n, func(node **mac.NodeState) {
		if c.Present(*node != nil) {
			if c.Decoding() {
				*node = &mac.NodeState{}
			}
			codeNode(c, *node, ver)
		}
	})
}
