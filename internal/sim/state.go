package sim

import (
	"fmt"

	"github.com/digs-net/digs/internal/topology"
)

// NetworkState is the complete mutable state of a Network at a slot
// boundary, as plain old data. The scratch buffers and RSS matrix are
// construction-derived (topology + device count) and not part of it; the
// scheduled-event queue holds closures and therefore cannot be part of it —
// CaptureState refuses to run while events are pending. Scenario layers
// (chaos plans, flow generators) schedule their events after a restore,
// exactly as they would on a cold network.
type NetworkState struct {
	Seed     int64
	ASN      int64
	Started  bool
	EventSeq uint64
	// RNGDraws is the fading generator's position: the number of source
	// steps consumed since seeding.
	RNGDraws          uint64
	FastFadingSigmaDB float64
	Failed            []bool // indexed by node ID, entry 0 unused
	// Fade is the symmetric link-attenuation overlay, flattened like the
	// RSS matrix; nil when no fade was ever applied.
	Fade []float64
	// DriftProb/DriftSeed are the per-node clock-drift parameters; nil
	// when drift was never configured.
	DriftProb []float64
	DriftSeed []uint64

	// FadeLinkIdx/FadeLinkVal carry the sparse medium's fade overlay as
	// (sparse link index, attenuation dB) pairs; nil on the dense medium or
	// when no fade is active. The indices are positions in the topology's
	// radius-pruned adjacency, which is a pure function of the topology —
	// the same deployment always yields the same link numbering.
	FadeLinkIdx []int32
	FadeLinkVal []float64

	// NapUntil/NapStart are the per-node nap windows (indexed by node ID,
	// entry 0 unused) of a sparse-medium network. A capture ends every nap
	// first and leaves them nil; sparse captures of earlier builds carried
	// the sleeping devices' windows here, and RestoreState still takes them.
	NapUntil []int64
	NapStart []int64
}

// CaptureState snapshots the network's mutable state. It fails while
// scheduled events or interferers are outstanding: both hold live closures
// and interfaces that no wire format can carry, so snapshots are taken at
// scenario quiesce points (after convergence, before the next plan or flow
// set is scheduled) where neither exists.
//
// A capture first settles and ends every nap, on both media, which the
// Napper contract makes unobservable (a woken device plans the op it
// promised to plan and naps again). A snapshot therefore carries no nap
// vectors and no lagging counter: its bytes do not depend on when devices
// nap, and a restore asks no device what it would scan.
func (nw *Network) CaptureState() (*NetworkState, error) {
	if len(nw.pending) > 0 {
		return nil, fmt.Errorf("sim: capture with %d scheduled events pending (snapshot at a quiesce point, before scheduling scenario events)", len(nw.pending))
	}
	if len(nw.interferers) > 0 {
		return nil, fmt.Errorf("sim: capture with %d interferers registered (snapshot before fault injection)", len(nw.interferers))
	}
	for id := 1; id <= nw.numDevs; id++ {
		nw.Wake(topology.NodeID(id)) // a no-op on a device that is not napping
	}
	st := &NetworkState{
		Seed:              nw.seed,
		ASN:               nw.asn,
		Started:           nw.started,
		EventSeq:          nw.eventSeq,
		RNGDraws:          nw.rngSrc.Draws(),
		FastFadingSigmaDB: nw.FastFadingSigmaDB,
		Failed:            append([]bool(nil), nw.failed...),
	}
	if nw.fade != nil {
		st.Fade = append([]float64(nil), nw.fade...)
	}
	if nw.driftProb != nil {
		st.DriftProb = append([]float64(nil), nw.driftProb...)
		st.DriftSeed = append([]uint64(nil), nw.driftSeed...)
	}
	if sc := nw.scale; sc != nil {
		for i, v := range sc.fade {
			if v != 0 {
				st.FadeLinkIdx = append(st.FadeLinkIdx, int32(i))
				st.FadeLinkVal = append(st.FadeLinkVal, v)
			}
		}
	}
	return st, nil
}

// RestoreState overlays a captured state onto a freshly built network: same
// topology, same seed, all devices attached, no slot executed yet. The
// state is deep-copied, so one in-memory snapshot can seed many branched
// networks.
func (nw *Network) RestoreState(st *NetworkState) error {
	if nw.started {
		return fmt.Errorf("sim: restore into a network that already stepped")
	}
	if st.Seed != nw.seed {
		return fmt.Errorf("sim: restore seed %d into network seeded %d", st.Seed, nw.seed)
	}
	if len(st.Failed) != len(nw.failed) {
		return fmt.Errorf("sim: restore failed-vector length %d, topology wants %d", len(st.Failed), len(nw.failed))
	}
	if nw.scale == nil && (st.FadeLinkIdx != nil || st.NapUntil != nil) {
		return fmt.Errorf("sim: restore scale-engine state into a dense-matrix network")
	}
	if nw.scale != nil && st.Fade != nil {
		return fmt.Errorf("sim: restore dense fade overlay into a scale-mode network")
	}
	if st.Fade != nil && len(st.Fade) != len(nw.rss) {
		return fmt.Errorf("sim: restore fade overlay length %d, topology wants %d", len(st.Fade), len(nw.rss))
	}
	if st.DriftProb != nil && (len(st.DriftProb) != nw.rssDim || len(st.DriftSeed) != nw.rssDim) {
		return fmt.Errorf("sim: restore drift vectors length %d/%d, topology wants %d",
			len(st.DriftProb), len(st.DriftSeed), nw.rssDim)
	}
	nw.asn = st.ASN
	nw.started = st.Started
	nw.eventSeq = st.EventSeq
	nw.rngSrc.Reset(st.RNGDraws)
	nw.FastFadingSigmaDB = st.FastFadingSigmaDB
	copy(nw.failed, st.Failed)
	if st.Fade != nil {
		nw.fade = append([]float64(nil), st.Fade...)
	} else {
		nw.fade = nil
	}
	if st.DriftProb != nil {
		nw.driftProb = append([]float64(nil), st.DriftProb...)
		nw.driftSeed = append([]uint64(nil), st.DriftSeed...)
		nw.misses = make([]bool, nw.rssDim)
	} else {
		nw.driftProb, nw.driftSeed, nw.misses = nil, nil, nil
	}
	if sc := nw.scale; sc != nil {
		if len(st.FadeLinkIdx) != len(st.FadeLinkVal) {
			return fmt.Errorf("sim: restore sparse fade pairs mismatched (%d indices, %d values)",
				len(st.FadeLinkIdx), len(st.FadeLinkVal))
		}
		sc.fade = nil
		for k, i := range st.FadeLinkIdx {
			if int(i) < 0 || int(i) >= sc.sparse.Links() {
				return fmt.Errorf("sim: restore fade link index %d outside adjacency (%d links)",
					i, sc.sparse.Links())
			}
			if sc.fade == nil {
				sc.fade = make([]float64, sc.sparse.Links())
			}
			sc.fade[i] = st.FadeLinkVal[k]
		}
	}
	if st.NapUntil != nil {
		if len(st.NapUntil) != len(nw.napUntil) || len(st.NapStart) != len(nw.napStart) {
			return fmt.Errorf("sim: restore nap vectors length %d/%d, topology wants %d",
				len(st.NapUntil), len(st.NapStart), len(nw.napUntil))
		}
		copy(nw.napUntil, st.NapUntil)
		copy(nw.napStart, st.NapStart)
	} else {
		clear(nw.napUntil)
		clear(nw.napStart)
	}
	nw.rebuildAwake()
	return nil
}
