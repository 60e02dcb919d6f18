// Package chaos is the declarative fault-plan engine: it composes every
// failure mode the simulator supports — node crashes and reboots (with
// optional routing-state loss), duty-cycled and channel-hopping jammers,
// correlated link fades, access-point failover, network partitions and
// clock drift on the slot timer — into one schedulable scenario.
//
// A Plan is a seeded list of Entries, each a fault kind with targets,
// start offset, duration and optional period, loadable from JSON. Apply
// wires the plan into a sim.Network before the run starts; every fault
// draws its randomness from stateless hashes of (seed, slot), never from
// the network's RNG, so a plan perturbs nothing but what it names and
// runs bit-identically under the parallel campaign runner.
//
// The engine reports fault lifecycles through the telemetry stream
// (fault_start / fault_end / reconverged events); the Recovery sink folds
// that stream into per-fault time-to-reconverge and packets-lost-during-
// repair, which is what cmd/digs-chaos prints.
package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// Kind names a fault kind in a plan entry.
type Kind string

// Fault kinds.
const (
	// KindNodeCrash kills the target nodes' radios; with a duration they
	// reboot when it ends (see Entry.LoseState).
	KindNodeCrash Kind = "node-crash"
	// KindAPFailover crashes an access point (the topology's first AP
	// when no target is given), forcing the network onto the others.
	KindAPFailover Kind = "ap-failover"
	// KindJamWiFi places a JamLab-style WiFi-streaming jammer at the
	// target node (Entry.WiFiChannel selects 1, 6 or 11). The mote itself
	// keeps running; add a node-crash entry to model a repurposed mote.
	KindJamWiFi Kind = "jam-wifi"
	// KindJamBluetooth places a channel-hopping Bluetooth jammer at the
	// target node.
	KindJamBluetooth Kind = "jam-bluetooth"
	// KindLinkFade weakens every link incident on the target region by
	// Entry.FadeDB for the fault window (a correlated fade: machinery,
	// a door, a forklift).
	KindLinkFade Kind = "link-fade"
	// KindPartition cuts the target island off from the rest of the
	// network (an extreme correlated fade) for the fault window.
	KindPartition Kind = "partition"
	// KindClockDrift desynchronises the targets' slot timers: each slot
	// independently misses with a probability derived from
	// Entry.DriftPPM, modelling guard-time overruns between
	// resynchronisations.
	KindClockDrift Kind = "clock-drift"
)

// Duration is a time.Duration that marshals to JSON as a string ("2m30s");
// plain numbers are accepted on input as seconds.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		p, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("chaos: bad duration %q: %w", x, err)
		}
		*d = Duration(p)
	case float64:
		*d = Duration(time.Duration(x * float64(time.Second)))
	default:
		return fmt.Errorf("chaos: duration must be a string or seconds, got %T", v)
	}
	return nil
}

// Slots converts the duration to whole slots.
func (d Duration) Slots() int64 { return sim.SlotsFor(time.Duration(d)) }

// Entry is one fault in a plan.
type Entry struct {
	Kind Kind `json:"kind"`
	// Targets are the affected nodes. Semantics per kind: the crashed
	// nodes (node-crash, ap-failover), the jammer's position (jam-*,
	// exactly one), the faded region (link-fade), the partitioned island
	// (partition), or the drifting nodes (clock-drift).
	Targets []topology.NodeID `json:"targets,omitempty"`
	// Start offsets the first occurrence from the plan epoch (the slot
	// Apply was called in).
	Start Duration `json:"start"`
	// Duration is how long each occurrence lasts; zero means permanent
	// (no fault_end, no restore).
	Duration Duration `json:"duration,omitempty"`
	// Period, when positive, repeats the fault every Period for Repeat
	// occurrences.
	Period Duration `json:"period,omitempty"`
	// Repeat is the occurrence count for periodic faults (>= 1).
	Repeat int `json:"repeat,omitempty"`
	// Seed overrides the entry's randomness seed; zero derives one from
	// the plan seed and the entry index.
	Seed int64 `json:"seed,omitempty"`
	// WiFiChannel selects the 802.11 channel a jam-wifi entry occupies
	// (1, 6 or 11).
	WiFiChannel int `json:"wifi_channel,omitempty"`
	// FadeDB is the attenuation a link-fade applies (required > 0);
	// partition uses it too, defaulting to a link-killing 200 dB.
	FadeDB float64 `json:"fade_db,omitempty"`
	// DriftPPM is the clock-drift magnitude in parts per million of a
	// free-running 32 kHz crystal (required > 0 for clock-drift).
	DriftPPM float64 `json:"drift_ppm,omitempty"`
	// LoseState makes a crash/failover reboot discard the protocol's
	// routing state (the node rejoins from scratch) instead of resuming
	// from persistent storage.
	LoseState bool `json:"lose_state,omitempty"`
}

// occurrences returns how many times the entry fires.
func (e *Entry) occurrences() int {
	if e.Period <= 0 {
		return 1
	}
	return e.Repeat
}

// Plan is a complete, seeded fault scenario.
type Plan struct {
	Name string `json:"name"`
	// Seed feeds every entry's stateless randomness (jammer duty cycles,
	// drift phases); the same plan and seed reproduce the same faults
	// bit-identically.
	Seed    int64   `json:"seed"`
	Entries []Entry `json:"entries"`
}

// Load decodes a plan from JSON. Unknown fields are rejected so typos in
// hand-written plans fail loudly.
func Load(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	p := &Plan{}
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("chaos: decoding plan: %w", err)
	}
	return p, nil
}

// LoadFile reads and decodes a plan file.
func LoadFile(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Validate checks the plan against a topology. Apply calls it; load-time
// callers can run it early for better error messages.
func (p *Plan) Validate(topo *topology.Topology) error {
	for i := range p.Entries {
		if err := p.Entries[i].validate(topo); err != nil {
			return fmt.Errorf("chaos plan %q entry %d (%s): %w", p.Name, i, p.Entries[i].Kind, err)
		}
	}
	return nil
}

func (e *Entry) validate(topo *topology.Topology) error {
	if e.Start < 0 || e.Duration < 0 || e.Period < 0 {
		return fmt.Errorf("negative time field")
	}
	if e.Period > 0 {
		if e.Repeat < 1 {
			return fmt.Errorf("periodic entry needs repeat >= 1")
		}
		if e.Duration <= 0 {
			return fmt.Errorf("periodic entry needs a duration")
		}
		if e.Duration >= e.Period {
			return fmt.Errorf("duration %v must be shorter than period %v",
				time.Duration(e.Duration), time.Duration(e.Period))
		}
	}
	for _, id := range e.Targets {
		if id < 1 || int(id) > topo.N() {
			return fmt.Errorf("target %d outside topology (1..%d)", id, topo.N())
		}
	}
	switch e.Kind {
	case KindNodeCrash:
		if len(e.Targets) == 0 {
			return fmt.Errorf("needs at least one target")
		}
	case KindAPFailover:
		for _, id := range e.Targets {
			if !topo.IsAP(id) {
				return fmt.Errorf("target %d is not an access point", id)
			}
		}
	case KindJamWiFi:
		if len(e.Targets) != 1 {
			return fmt.Errorf("needs exactly one target (the jammer position)")
		}
		switch e.WiFiChannel {
		case 1, 6, 11:
		default:
			return fmt.Errorf("wifi_channel must be 1, 6 or 11 (got %d)", e.WiFiChannel)
		}
	case KindJamBluetooth:
		if len(e.Targets) != 1 {
			return fmt.Errorf("needs exactly one target (the jammer position)")
		}
	case KindLinkFade:
		if len(e.Targets) == 0 {
			return fmt.Errorf("needs at least one target")
		}
		if e.FadeDB <= 0 {
			return fmt.Errorf("needs fade_db > 0")
		}
	case KindPartition:
		if len(e.Targets) == 0 || len(e.Targets) >= topo.N() {
			return fmt.Errorf("island must be a proper non-empty subset of the network")
		}
	case KindClockDrift:
		if len(e.Targets) == 0 {
			return fmt.Errorf("needs at least one target")
		}
		if e.DriftPPM <= 0 {
			return fmt.Errorf("needs drift_ppm > 0")
		}
	default:
		return fmt.Errorf("unknown kind")
	}
	return nil
}

// Horizon returns the offset from the plan epoch at which the last
// scheduled fault boundary lands (permanent faults contribute their start
// slot). Callers size their runs past it, plus whatever recovery tail
// they want to observe.
func (p *Plan) Horizon() time.Duration {
	var h time.Duration
	for i := range p.Entries {
		e := &p.Entries[i]
		last := time.Duration(e.Start) +
			time.Duration(e.Period)*time.Duration(e.occurrences()-1) +
			time.Duration(e.Duration)
		if last > h {
			h = last
		}
	}
	return h
}

// EntryKind names the kind of the plan's entry i, "?" when the plan has no
// such entry.
func (p *Plan) EntryKind(i int) string {
	if i >= len(p.Entries) {
		return "?"
	}
	return string(p.Entries[i].Kind)
}

// seedFor returns the entry's effective randomness seed.
func (p *Plan) seedFor(idx int) int64 {
	if s := p.Entries[idx].Seed; s != 0 {
		return s
	}
	return p.Seed + int64(idx)*1000003
}

// driftMissProb maps a crystal tolerance in ppm to a per-slot miss
// probability. A TSCH node resynchronises on every frame it hears; between
// hearing opportunities the offset grows by drift, and slots whose
// accumulated offset exceeds the ~1 ms guard time miss their cell. With
// beacon periods of a few seconds, a d-ppm crystal overruns the guard in
// roughly d/550 of slots; the cap keeps a pathological plan from silently
// looking like a crash.
func driftMissProb(ppm float64) float64 {
	p := ppm / 550
	if p > 0.95 {
		p = 0.95
	}
	return p
}
