package controller

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"github.com/digs-net/digs/internal/link"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
)

// SDNConfig holds the centralized controller's parameters.
//
// The model is deliberately honest about in-band cost: the controller is
// one radio node (the lowest-ID access point), every link-state report
// crosses the mesh hop by hop through dedicated control cells, and every
// recomputed configuration travels back the same way, source-routed over
// the graph the controller last collected. Nothing is teleported.
type SDNConfig struct {
	EBFrameLen   int64 // beacon slotframe (sync + hop gradient)
	CtrlFrameLen int64 // report/config slotframe (receiver-based cells)
	DataFrameLen int64 // data slotframe (sender-based cells)

	// ReportEvery is each node's link-state report period.
	ReportEvery time.Duration
	// RecomputeEvery is the controller's route/schedule recompute period.
	RecomputeEvery time.Duration
	// StaleAfter drops a node's report from the controller's view; a node
	// that stops reporting (crash) disappears from the graph after this.
	StaleAfter time.Duration
	// NeighborStale expires a node's local gradient/signal table entries.
	NeighborStale time.Duration
	// MaintainEvery is the local bookkeeping tick (gradient refresh,
	// report scheduling).
	MaintainEvery time.Duration

	// MaxNeighborsReported caps a report to the strongest links.
	MaxNeighborsReported int
	// MaxChildren caps a disseminated configuration's listen-cell list.
	MaxChildren int
	// CtrlQueueCap bounds a relay's pending control frames;
	// CtrlQueueCapController bounds the controller's dissemination queue.
	CtrlQueueCap           int
	CtrlQueueCapController int
	// MaxCtrlTries drops a control frame after that many failed hops.
	MaxCtrlTries int
	// DeadAckThreshold is the consecutive unacked data transmissions
	// after which a node declares its configured parent dead, drops out
	// of the routed set and raises an alarm report.
	DeadAckThreshold int
	// FullRefreshEvery re-disseminates every configuration (not just
	// changed ones) every that-many recompute epochs.
	FullRefreshEvery int
	// ControllerCells provisions that many receive cells at the controller
	// in the control slotframe (senders spread over them by their own ID).
	// One cell caps inbound reports at 1/CtrlFrameLen per slot — far below
	// what a full deployment offers — so the sink gets the extra bandwidth
	// a real SDN-WSAN root is dimensioned with.
	ControllerCells int
}

// DefaultSDNConfig returns the evaluation configuration.
func DefaultSDNConfig() SDNConfig {
	return SDNConfig{
		EBFrameLen:             557,
		CtrlFrameLen:           53,
		DataFrameLen:           151,
		ReportEvery:            10 * time.Second,
		RecomputeEvery:         15 * time.Second,
		StaleAfter:             90 * time.Second,
		NeighborStale:          60 * time.Second,
		MaintainEvery:          time.Second,
		MaxNeighborsReported:   16,
		MaxChildren:            64,
		CtrlQueueCap:           16,
		CtrlQueueCapController: 64,
		MaxCtrlTries:           8,
		DeadAckThreshold:       8,
		FullRefreshEvery:       4,
		ControllerCells:        4,
	}
}

// Validate checks the configuration.
func (c SDNConfig) Validate() error {
	if c.EBFrameLen <= 0 || c.CtrlFrameLen <= 0 || c.DataFrameLen <= 0 {
		return fmt.Errorf("sdn config: slotframe lengths must be positive (%d, %d, %d)",
			c.EBFrameLen, c.CtrlFrameLen, c.DataFrameLen)
	}
	if c.MaxNeighborsReported < 1 || c.MaxNeighborsReported > 255 {
		return fmt.Errorf("sdn config: max neighbors reported %d (want 1..255)", c.MaxNeighborsReported)
	}
	if c.MaxChildren < 1 || c.MaxChildren > 255 {
		return fmt.Errorf("sdn config: max children %d (want 1..255)", c.MaxChildren)
	}
	if c.CtrlQueueCap < 1 || c.CtrlQueueCapController < 1 {
		return fmt.Errorf("sdn config: control queue caps must be positive")
	}
	if c.DeadAckThreshold < 1 {
		return fmt.Errorf("sdn config: dead-ack threshold must be positive")
	}
	if c.FullRefreshEvery < 1 {
		return fmt.Errorf("sdn config: full refresh period must be positive")
	}
	if c.ControllerCells < 1 {
		return fmt.Errorf("sdn config: controller cells must be positive")
	}
	// The controller's j-th cell sits at stride 17 from the base cell; all
	// of them must be distinct modulo the control frame length.
	seen := make(map[int64]bool, c.ControllerCells)
	for j := 0; j < c.ControllerCells; j++ {
		slot := (int64(j) * 17) % c.CtrlFrameLen
		if seen[slot] {
			return fmt.Errorf("sdn config: %d controller cells collide in a %d-slot frame",
				c.ControllerCells, c.CtrlFrameLen)
		}
		seen[slot] = true
	}
	return nil
}

// sdn control-plane channel lanes: control cells hop on a small lane set
// derived from the cell owner, data cells on the remaining lanes.
const (
	sdnCtrlChannelBase = 1
	sdnCtrlLanes       = 4
	sdnDataChannelBase = sdnCtrlChannelBase + sdnCtrlLanes
	sdnDataLanes       = 11
)

func sdnCtrlLane(owner topology.NodeID) uint8 {
	return sdnCtrlChannelBase + uint8((int64(owner)*11)%sdnCtrlLanes)
}

func sdnDataLane(owner topology.NodeID) uint8 {
	return sdnDataChannelBase + uint8((int64(owner)*13)%sdnDataLanes)
}

// sdnCell is the receiver-based control cell / sender-based data cell of
// a node.
func sdnCell(id topology.NodeID, frameLen int64) int64 {
	return (int64(id) * 37) % frameLen
}

// ctrlCellTo is the control cell a frame from this node to dst uses. The
// controller owns ControllerCells receive cells (stride 17 apart in the
// frame) and senders spread over them by their own ID; every other node
// owns exactly one.
func (s *SDNStack) ctrlCellTo(dst topology.NodeID) int64 {
	base := sdnCell(dst, s.cfg.CtrlFrameLen)
	if dst != s.controllerID || s.cfg.ControllerCells <= 1 {
		return base
	}
	j := int64(s.id) % int64(s.cfg.ControllerCells)
	return (base + j*17) % s.cfg.CtrlFrameLen
}

// ownCtrlCells returns this node's receive cells in the control slotframe:
// one, or ControllerCells on the controller, the j-th at stride 17*j from
// its base cell.
func (s *SDNStack) ownCtrlCells() []int64 {
	n := int64(1)
	if s.controller() {
		n = int64(s.cfg.ControllerCells)
	}
	base := sdnCell(s.id, s.cfg.CtrlFrameLen)
	cells := make([]int64, n)
	for j := range cells {
		cells[j] = (base + int64(j)*17) % s.cfg.CtrlFrameLen
	}
	return cells
}

// sdnHopsUnknown marks a node that has no path-to-controller estimate yet.
const sdnHopsUnknown = 255

// --- wire formats (report and config payloads) ---

// marshalReport encodes [n][id u32, -rss u8]*: the reporter's strongest
// observed links.
func marshalReport(neigh []SDNReportNeighbor) []byte {
	b := make([]byte, 1, 1+5*len(neigh))
	b[0] = byte(len(neigh))
	for _, e := range neigh {
		var idb [4]byte
		binary.BigEndian.PutUint32(idb[:], uint32(e.Node))
		b = append(b, idb[:]...)
		r := -e.RSS
		if r < 0 {
			r = 0
		}
		if r > 255 {
			r = 255
		}
		b = append(b, byte(r))
	}
	return b
}

func unmarshalReport(b []byte) ([]SDNReportNeighbor, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("sdn report: empty payload")
	}
	n := int(b[0])
	if len(b) != 1+5*n {
		return nil, fmt.Errorf("sdn report: %d bytes for %d entries", len(b), n)
	}
	out := make([]SDNReportNeighbor, n)
	for i := 0; i < n; i++ {
		off := 1 + 5*i
		out[i].Node = topology.NodeID(binary.BigEndian.Uint32(b[off : off+4]))
		out[i].RSS = -float64(b[off+4])
	}
	return out, nil
}

// marshalConfig encodes [epoch u16][parent u32][n u8][child u32]*.
func marshalConfig(epoch uint16, parent topology.NodeID, children []topology.NodeID) []byte {
	b := make([]byte, 7, 7+4*len(children))
	binary.BigEndian.PutUint16(b[0:2], epoch)
	binary.BigEndian.PutUint32(b[2:6], uint32(parent))
	b[6] = byte(len(children))
	for _, c := range children {
		var cb [4]byte
		binary.BigEndian.PutUint32(cb[:], uint32(c))
		b = append(b, cb[:]...)
	}
	return b
}

func unmarshalConfig(b []byte) (epoch uint16, parent topology.NodeID, children []topology.NodeID, err error) {
	if len(b) < 7 {
		return 0, 0, nil, fmt.Errorf("sdn config: %d bytes, want >= 7", len(b))
	}
	n := int(b[6])
	if len(b) != 7+4*n {
		return 0, 0, nil, fmt.Errorf("sdn config: %d bytes for %d children", len(b), n)
	}
	epoch = binary.BigEndian.Uint16(b[0:2])
	parent = topology.NodeID(binary.BigEndian.Uint32(b[2:6]))
	if n > 0 {
		children = make([]topology.NodeID, n)
		for i := range children {
			children[i] = topology.NodeID(binary.BigEndian.Uint32(b[7+4*i : 11+4*i]))
		}
	}
	return epoch, parent, children, nil
}

// epochNewer compares config epochs with wraparound; a huge backward jump
// reads as a controller restart and is accepted too (lollipop-style), so a
// rebooted controller regains authority without waiting out the sequence
// space.
func epochNewer(e, have uint16) bool {
	d := int16(e - have)
	return d > 0 || d < -32
}

// --- per-node tables ---

type sdnHopsEntry struct {
	hops  uint8
	heard sim.ASN
}

type sdnRSSEntry struct {
	rss   float64
	heard sim.ASN
}

type sdnCtrlEntry struct {
	frame *sim.Frame
	tries int
	// notBefore delays the next transmission attempt: deterministic,
	// sender-ID-salted backoff so two relays aiming at the same control
	// cell do not collide in lockstep forever.
	notBefore sim.ASN
}

type sdnReportEntry struct {
	asn   sim.ASN
	neigh []SDNReportNeighbor
}

type sdnNodeConfig struct {
	parent   topology.NodeID
	children []topology.NodeID // sorted ascending
}

func sameConfig(a, b sdnNodeConfig) bool {
	if a.parent != b.parent || len(a.children) != len(b.children) {
		return false
	}
	for i := range a.children {
		if a.children[i] != b.children[i] {
			return false
		}
	}
	return true
}

// SDNStack is one node's stack instance. Exactly one node per network —
// the lowest-ID access point — runs the controller role; all controller
// state lives inside that node's stack, so no node mutates another's
// state outside the radio.
type SDNStack struct {
	id           topology.NodeID
	isAP         bool
	controllerID topology.NodeID
	roster       int               // topology node count (provisioned, like the controller address)
	aps          []topology.NodeID // sink set, sorted (provisioned)
	cfg          SDNConfig

	// The node's own cells, fixed at build: its beacon offset, its control
	// receive cells and its data cell.
	ownEB   int64
	ctrlRx  []int64
	ownData int64

	synced bool

	// Gradient toward the controller (from beacon hop counts): used only
	// to route reports before/around a configured tree.
	hops    link.Table[sdnHopsEntry]
	uplink  topology.NodeID
	ownHops uint8

	// Observed link table (from overheard beacons in discovery slots).
	rss link.Table[sdnRSSEntry]

	nextMaintain sim.ASN
	nextReport   sim.ASN

	// Configured data plane (pushed by the controller).
	cfgEpoch uint16
	parent   topology.NodeID
	children []topology.NodeID // sorted
	// childCells is the offset-sorted table of the children's data cells,
	// rebuilt in place whenever children changes; childHint is its lookup
	// hint.
	childCells mac.Cells[topology.NodeID]
	childHint  int
	// consecParentFails counts consecutive unacked data transmissions;
	// crossing DeadAckThreshold declares the parent dead.
	consecParentFails int

	ctrlQ []sdnCtrlEntry

	// onParentChange reports data-plane route changes to telemetry;
	// onJoinedChange is called when a parent is gained or lost.
	onParentChange stack.RouteHook
	onJoinedChange func()

	// --- controller-only state (empty tables on every other node) ---
	reports       link.Table[sdnReportEntry]
	epoch         uint16
	epochCount    int64
	nextRecompute sim.ASN
	lastSent      link.Table[sdnNodeConfig]
}

var _ mac.Protocol = (*SDNStack)(nil)

// SDNReportNeighbor is one link observation inside a report.
type SDNReportNeighbor struct {
	Node topology.NodeID
	RSS  float64
}

// NewSDNStack builds one node's stack. controllerID is the elected
// controller (lowest-ID access point), roster the deployment's node count
// and aps the sink set; all are provisioning-time constants, like a real
// controller address.
func NewSDNStack(id topology.NodeID, isAP bool, controllerID topology.NodeID,
	roster int, aps []topology.NodeID, cfg SDNConfig) (*SDNStack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sortedAPs := append([]topology.NodeID(nil), aps...)
	slices.Sort(sortedAPs)
	s := &SDNStack{
		id:           id,
		isAP:         isAP,
		controllerID: controllerID,
		roster:       roster,
		aps:          sortedAPs,
		cfg:          cfg,
		ownHops:      sdnHopsUnknown,
	}
	if s.controller() {
		s.ownHops = 0
	}
	s.ownEB = int64(id-1) % cfg.EBFrameLen
	s.ctrlRx = s.ownCtrlCells()
	s.ownData = sdnCell(id, cfg.DataFrameLen)
	return s, nil
}

// controller reports whether this node runs the controller role.
func (s *SDNStack) controller() bool { return s.id == s.controllerID }

// Configured reports whether the node holds a routed data-plane state:
// access points sink traffic by construction, everyone else needs a
// controller-assigned parent.
func (s *SDNStack) Configured() bool { return s.isAP || s.parent != 0 }

// Joined implements stack.Node: see Configured.
func (s *SDNStack) Joined() bool { return s.Configured() }

// SetRouteHook implements stack.Node: both controller reroutes and
// dead-parent drops are reported.
func (s *SDNStack) SetRouteHook(fn stack.RouteHook) { s.onParentChange = fn }

// SetJoinHook implements stack.Node.
func (s *SDNStack) SetJoinHook(fn func()) { s.onJoinedChange = fn }

// Probe implements stack.Node.
func (s *SDNStack) Probe() (parent topology.NodeID, neighbors int) {
	return s.parent, s.rss.Len()
}

// Reset implements mac.Resetter: full state loss, as after a reboot
// without persistent storage. Configuration, identity and the route and
// join hooks survive.
func (s *SDNStack) Reset() {
	s.synced = false
	s.hops = link.Table[sdnHopsEntry]{}
	s.uplink = 0
	s.ownHops = sdnHopsUnknown
	s.rss = link.Table[sdnRSSEntry]{}
	s.nextMaintain = 0
	s.nextReport = 0
	s.cfgEpoch = 0
	s.parent = 0
	s.children = nil
	s.childCells = nil
	s.consecParentFails = 0
	s.ctrlQ = nil
	if s.controller() {
		s.ownHops = 0
		s.reports = link.Table[sdnReportEntry]{}
		s.epoch = 0
		s.epochCount = 0
		s.nextRecompute = 0
		s.lastSent = link.Table[sdnNodeConfig]{}
	}
}

// timeSource is the node this node tracks beacons from: the configured
// parent when routed, the report uplink while bootstrapping.
func (s *SDNStack) timeSource() topology.NodeID {
	if s.parent != 0 {
		return s.parent
	}
	return s.uplink
}

// ctrlHead returns the control-queue head if it is eligible at this slot.
func (s *SDNStack) ctrlHead(asn sim.ASN) *sdnCtrlEntry {
	if len(s.ctrlQ) == 0 {
		return nil
	}
	e := &s.ctrlQ[0]
	if asn < e.notBefore {
		return nil
	}
	return e
}

// rebuildChildCells derives the listen cells from children (ascending ID: a
// cell two of them hash to goes to the higher ID).
func (s *SDNStack) rebuildChildCells() {
	s.childCells = s.childCells.Reset()
	for _, c := range s.children {
		s.childCells = s.childCells.Put(sdnCell(c, s.cfg.DataFrameLen), c)
	}
}

// maintain is the local bookkeeping tick.
func (s *SDNStack) maintain(asn sim.ASN) {
	stale := asn - sim.SlotsFor(s.cfg.NeighborStale)
	for i := s.hops.Len() - 1; i >= 0; i-- {
		if s.hops.At(i).Val.heard < stale {
			s.hops.DeleteAt(i)
		}
	}
	for i := s.rss.Len() - 1; i >= 0; i-- {
		if s.rss.At(i).Val.heard < stale {
			s.rss.DeleteAt(i)
		}
	}
	// Recompute the report uplink: the freshest-gradient neighbor with
	// the fewest hops to the controller. Equal-hop candidates are ranked
	// by an ID-salted key so different nodes spread over different relays
	// instead of dogpiling the lowest-ID one.
	if !s.controller() {
		// The order is total — hops, then salt, then ID — so the uplink is
		// a property of the table's contents, not of the order it is walked
		// in.
		best := topology.NodeID(0)
		bestHops := uint8(sdnHopsUnknown)
		salt := func(n topology.NodeID) int64 {
			return (int64(n)*31 + int64(s.id)*7) % 97
		}
		for _, h := range s.hops.Entries() {
			n, e := h.ID, h.Val
			switch {
			case best != 0 && e.hops > bestHops:
			case best != 0 && e.hops == bestHops &&
				(salt(n) > salt(best) || salt(n) == salt(best) && n > best):
			default:
				best, bestHops = n, e.hops
			}
		}
		s.uplink = best
		if best == 0 {
			s.ownHops = sdnHopsUnknown
		} else if bestHops >= sdnHopsUnknown-1 {
			s.ownHops = sdnHopsUnknown - 1
		} else {
			s.ownHops = bestHops + 1
		}
		// Report when due and routable.
		if s.synced && s.uplink != 0 && asn >= s.nextReport {
			s.enqueueReport(asn)
			s.nextReport = asn + sim.SlotsFor(s.cfg.ReportEvery)
		}
	}
}

// enqueueReport packages the strongest observed links into a report frame
// headed for the controller via the gradient uplink.
func (s *SDNStack) enqueueReport(asn sim.ASN) {
	neigh := make([]SDNReportNeighbor, 0, s.rss.Len())
	for _, e := range s.rss.Entries() {
		neigh = append(neigh, SDNReportNeighbor{Node: e.ID, RSS: e.Val.rss})
	}
	// Strongest first, ties to the lowest ID, capped.
	slices.SortFunc(neigh, func(a, b SDNReportNeighbor) int {
		if a.RSS != b.RSS {
			return cmp.Compare(b.RSS, a.RSS)
		}
		return cmp.Compare(a.Node, b.Node)
	})
	if len(neigh) > s.cfg.MaxNeighborsReported {
		neigh = neigh[:s.cfg.MaxNeighborsReported]
	}
	s.enqueueCtrl(&sim.Frame{
		Kind:    sim.KindReport,
		Src:     s.id,
		Dst:     s.uplink,
		Origin:  s.id,
		BornASN: asn,
		Payload: marshalReport(neigh),
	})
}

// enqueueCtrl appends to the bounded control queue; overflow drops the
// newcomer (deterministically — the periodic report/refresh machinery
// retries later). It reports whether the frame was admitted.
func (s *SDNStack) enqueueCtrl(f *sim.Frame) bool {
	limit := s.cfg.CtrlQueueCap
	if s.controller() {
		limit = s.cfg.CtrlQueueCapController
	}
	if len(s.ctrlQ) >= limit {
		return false
	}
	s.ctrlQ = append(s.ctrlQ, sdnCtrlEntry{frame: f})
	return true
}

// Assignment implements mac.Protocol: the timers that are due, then the
// slot answered from the four slotframes (cellAt), with the control queue's
// head once its backoff has passed.
func (s *SDNStack) Assignment(asn sim.ASN) mac.Assignment {
	if asn >= s.nextMaintain {
		s.nextMaintain = asn + sim.SlotsFor(s.cfg.MaintainEvery)
		s.maintain(asn)
	}
	if s.controller() && s.synced && asn >= s.nextRecompute {
		s.nextRecompute = asn + sim.SlotsFor(s.cfg.RecomputeEvery)
		s.recompute(asn)
	}
	return s.cellAt(asn, s.ctrlHead(asn))
}

// cellAt answers the slot from the four slotframes, highest priority
// first, changing no state but the child table's lookup hint; head is the
// control queue entry whose target cell may take the slot, nil for none.
// Beacons: the node's own, then its time source's. Control cells, on the
// cell owner's lane: head's target cell, then the node's own receive cells.
// Data cells, on the transmitter's lane: its own once configured, then its
// children's. Discovery last: every deployment node k beacons at (k-1) %
// EBFrameLen, and the node listens on any of those offsets nothing above
// claimed — that is how the link table the controller collects gets
// populated.
func (s *SDNStack) cellAt(asn sim.ASN, head *sdnCtrlEntry) mac.Assignment {
	eb := asn % s.cfg.EBFrameLen
	if eb == s.ownEB {
		return mac.Assignment{Role: mac.RoleTxEB, ChannelOffset: ebChannelOffset}
	}
	if ts := s.timeSource(); ts != 0 && eb == int64(ts-1)%s.cfg.EBFrameLen {
		return mac.Assignment{Role: mac.RoleRxEB, ChannelOffset: ebChannelOffset}
	}
	ctrl := asn % s.cfg.CtrlFrameLen
	if head != nil && ctrl == s.ctrlCellTo(head.frame.Dst) {
		return mac.Assignment{Role: mac.RoleShared, ChannelOffset: sdnCtrlLane(head.frame.Dst)}
	}
	for _, c := range s.ctrlRx {
		if c == ctrl {
			return mac.Assignment{Role: mac.RoleShared, ChannelOffset: sdnCtrlLane(s.id)}
		}
	}
	data := asn % s.cfg.DataFrameLen
	if s.parent != 0 && data == s.ownData {
		return mac.Assignment{Role: mac.RoleTxData, ChannelOffset: sdnDataLane(s.id), Attempt: 1}
	}
	if c, ok := s.childCells.At(data, &s.childHint); ok {
		return mac.Assignment{Role: mac.RoleRxData, ChannelOffset: sdnDataLane(c)}
	}
	if eb < int64(s.roster) {
		return mac.Assignment{Role: mac.RoleRxEB, ChannelOffset: ebChannelOffset}
	}
	return mac.Assignment{Role: mac.RoleSleep}
}

// NextActive implements mac.Protocol: the earliest slot at or after `after`
// holding one of the node's cells or timers. Cells: the discovery listens
// (every beacon offset below the roster), the node's own beacon slot and its
// time source's, its control receive cells, the control cell of the queue
// head — whenever the queue is non-empty, whatever the head's backoff says,
// since a cell counts as active whether or not anything goes out in it —
// its own data cell while data is queued, and its children's. A slot its
// own data cell takes is skipped while nothing is queued, whatever else
// lies under it: cellAt decides, with the queue head's control cell taking
// its slot. Timers: the maintenance tick and, on the controller, the
// recompute deadline. A slot inside the discovery offsets is active
// itself, which on a generated plant (a roster of at least a beacon frame)
// is every slot.
func (s *SDNStack) NextActive(after sim.ASN, queued bool) sim.ASN {
	var head *sdnCtrlEntry
	if len(s.ctrlQ) > 0 {
		head = &s.ctrlQ[0]
	}
	w := s.nextCell(after, queued)
	// Only the own data offset, while routed, can be RoleTxData: test that
	// before the full cell lookup.
	for !queued && s.parent != 0 && w%s.cfg.DataFrameLen == s.ownData &&
		s.cellAt(w, head).Role == mac.RoleTxData {
		w = s.nextCell(w+1, queued)
	}
	if s.controller() && s.synced {
		w = min(w, max(s.nextRecompute, after))
	}
	return min(w, max(s.nextMaintain, after))
}

// nextCell is NextActive's cell part: the first slot at or after `after`
// holding one of the node's cells, its own data cell only while data is
// queued.
func (s *SDNStack) nextCell(after sim.ASN, queued bool) sim.ASN {
	eb := after % s.cfg.EBFrameLen
	if eb < int64(s.roster) {
		return after
	}
	d := s.cfg.EBFrameLen - eb // the next frame's discovery offsets
	d = min(d, mac.Dist(eb, s.ownEB, s.cfg.EBFrameLen))
	if ts := s.timeSource(); ts != 0 {
		d = min(d, mac.Dist(eb, int64(ts-1)%s.cfg.EBFrameLen, s.cfg.EBFrameLen))
	}
	ctrl := after % s.cfg.CtrlFrameLen
	for _, c := range s.ctrlRx {
		d = min(d, mac.Dist(ctrl, c, s.cfg.CtrlFrameLen))
	}
	if len(s.ctrlQ) > 0 {
		d = min(d, mac.Dist(ctrl, s.ctrlCellTo(s.ctrlQ[0].frame.Dst), s.cfg.CtrlFrameLen))
	}
	data := after % s.cfg.DataFrameLen
	if s.parent != 0 && queued {
		d = min(d, mac.Dist(data, s.ownData, s.cfg.DataFrameLen))
	}
	if v, ok := s.childCells.Dist(data, s.cfg.DataFrameLen, &s.childHint); ok {
		d = min(d, v)
	}
	return after + d
}

// OnSynced implements mac.Protocol.
func (s *SDNStack) OnSynced(asn sim.ASN) {
	s.synced = true
	s.nextMaintain = asn
	// Stagger first reports by node ID so a freshly formed network does
	// not dogpile the gradient in one slotframe.
	s.nextReport = asn + 200 + (int64(s.id)*31)%sim.SlotsFor(s.cfg.ReportEvery)
	if s.controller() {
		s.nextRecompute = asn + sim.SlotsFor(s.cfg.RecomputeEvery)
	}
}

// EBPayload implements mac.Protocol: beacons carry the hop distance to
// the controller, which is what bootstraps report routing.
func (s *SDNStack) EBPayload() []byte {
	return []byte{s.ownHops}
}

// OnFrame implements mac.Protocol.
func (s *SDNStack) OnFrame(asn sim.ASN, f *sim.Frame, rssi float64) {
	switch f.Kind {
	case sim.KindEB:
		s.rss.Put(f.Src, sdnRSSEntry{rss: rssi, heard: asn})
		if len(f.Payload) == 1 && f.Payload[0] != sdnHopsUnknown {
			s.hops.Put(f.Src, sdnHopsEntry{hops: f.Payload[0], heard: asn})
		}
	case sim.KindReport:
		if f.Dst != s.id {
			return
		}
		if s.controller() {
			s.absorbReport(asn, f)
			return
		}
		// Relay toward the controller via our current uplink. A relay
		// with no uplink (gradient hole) drops; the origin re-reports.
		if s.uplink == 0 || f.Origin == s.id {
			return
		}
		s.enqueueCtrl(&sim.Frame{
			Kind:    sim.KindReport,
			Src:     s.id,
			Dst:     s.uplink,
			Origin:  f.Origin,
			BornASN: f.BornASN,
			Payload: append([]byte(nil), f.Payload...),
		})
	case sim.KindConfig:
		if f.Dst != s.id {
			return
		}
		if len(f.Route) == 0 {
			s.applyConfig(asn, f.Payload)
			return
		}
		// Source-routed relay: peel the next hop off the remaining route.
		next := f.Route[0]
		s.enqueueCtrl(&sim.Frame{
			Kind:    sim.KindConfig,
			Src:     s.id,
			Dst:     next,
			Origin:  f.Origin,
			BornASN: f.BornASN,
			Route:   append([]topology.NodeID(nil), f.Route[1:]...),
			Payload: append([]byte(nil), f.Payload...),
		})
	}
}

// absorbReport ingests one node's link-state report.
func (s *SDNStack) absorbReport(asn sim.ASN, f *sim.Frame) {
	neigh, err := unmarshalReport(f.Payload)
	if err != nil {
		return
	}
	s.reports.Put(f.Origin, sdnReportEntry{asn: asn, neigh: neigh})
}

// applyConfig installs a controller-pushed route/schedule assignment.
func (s *SDNStack) applyConfig(asn sim.ASN, payload []byte) {
	epoch, parent, children, err := unmarshalConfig(payload)
	if err != nil {
		return
	}
	if s.cfgEpoch != 0 && !epochNewer(epoch, s.cfgEpoch) {
		return
	}
	oldParent := s.parent
	s.cfgEpoch = epoch
	s.parent = parent
	s.children = children
	s.rebuildChildCells()
	s.consecParentFails = 0
	if parent != oldParent && s.onParentChange != nil {
		s.onParentChange(asn, parent, 0)
	}
	if (parent == 0) != (oldParent == 0) && s.onJoinedChange != nil {
		s.onJoinedChange()
	}
}

// loseParent declares the configured parent dead after sustained data
// loss: the node leaves the routed set (honest time-to-repair — it is
// broken until the controller reroutes it) and raises an alarm report
// with the dead link scrubbed.
func (s *SDNStack) loseParent(asn sim.ASN) {
	dead := s.parent
	s.parent = 0
	s.consecParentFails = 0
	s.rss.Delete(dead)
	s.hops.Delete(dead)
	s.nextReport = asn // alarm: report at the next maintenance tick
	s.nextMaintain = asn
	if s.onParentChange != nil {
		s.onParentChange(asn, 0, 0)
	}
	if s.onJoinedChange != nil {
		s.onJoinedChange()
	}
}

// SharedFrame implements mac.Protocol: transmit the control-queue head
// when this slot is its target's cell, listen otherwise.
func (s *SDNStack) SharedFrame(asn sim.ASN) (*sim.Frame, bool) {
	e := s.ctrlHead(asn)
	if e == nil || asn%s.cfg.CtrlFrameLen != s.ctrlCellTo(e.frame.Dst) {
		return nil, false
	}
	return e.frame, true
}

// NextHop implements mac.Protocol: strictly the controller-assigned
// parent. No local repair — rerouting is the controller's job, and its
// latency is the point of the comparison.
func (s *SDNStack) NextHop(sim.ASN, int) (topology.NodeID, bool) {
	return s.parent, s.parent != 0
}

// OnTxResult implements mac.Protocol.
func (s *SDNStack) OnTxResult(asn sim.ASN, f *sim.Frame, to topology.NodeID, acked bool) {
	switch f.Kind {
	case sim.KindData:
		if acked {
			s.consecParentFails = 0
		} else if to == s.parent && s.parent != 0 {
			s.consecParentFails++
			if s.consecParentFails >= s.cfg.DeadAckThreshold {
				s.loseParent(asn)
			}
		}
	case sim.KindReport, sim.KindConfig:
		if len(s.ctrlQ) == 0 || s.ctrlQ[0].frame != f {
			return
		}
		if acked {
			s.ctrlQ = s.ctrlQ[1:]
			return
		}
		e := &s.ctrlQ[0]
		e.tries++
		if e.tries >= s.cfg.MaxCtrlTries {
			s.ctrlQ = s.ctrlQ[1:]
			return
		}
		// Deterministic ID-salted backoff: de-syncs relays that keep
		// colliding in the same receiver cell.
		e.notBefore = asn + 1 + (int64(s.id)*7+int64(e.tries)*13)%(3*s.cfg.CtrlFrameLen)
	}
}
