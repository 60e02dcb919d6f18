// Package scenario builds ready-to-run protocol scenarios — one of the
// registered stacks attached to a simulated network on a named topology —
// and pairs each with its checkpoint surface. It is the layer the CLIs and the
// warm-start machinery share: digs-snap takes and resumes snapshots of
// scenarios, digs-chaos branches fault plans off a cached converged one,
// and both must agree exactly on how a (topology, protocol, seed)
// combination is constructed, or a restored snapshot would overlay the
// wrong simulation.
package scenario

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	// The stacks a scenario can build: each registers its Codec from init.
	_ "github.com/digs-net/digs/internal/controller"
	_ "github.com/digs-net/digs/internal/core"
	_ "github.com/digs-net/digs/internal/orchestra"
	_ "github.com/digs-net/digs/internal/whart"

	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
)

// deployments are the named deployments the CLIs and specs accept, in the
// order the flag help lists them; generated gen-* deployments come on top.
var deployments = []struct {
	name  string
	build func() *topology.Topology
}{
	{"testbed-a", topology.TestbedA},
	{"testbed-b", topology.TestbedB},
	{"half-testbed-a", topology.HalfTestbedA},
	{"half-testbed-b", topology.HalfTestbedB},
	{"random-150", func() *topology.Topology { return topology.NewRandom(150, 300, 300, 7) }},
}

// TopologyNames lists the accepted -topology values.
var TopologyNames = func() string {
	var names []string
	for _, d := range deployments {
		names = append(names, d.name)
	}
	return strings.Join(append(names, "gen-{plant,campus,field}-<nodes>[-<seed>]"), ", ")
}()

// PickTopology resolves the deployment names the CLIs accept.
func PickTopology(name string) (*topology.Topology, error) {
	if err := ValidTopologyName(name); err != nil {
		return nil, err
	}
	for _, d := range deployments {
		if d.name == name {
			return d.build(), nil
		}
	}
	p, _, _ := topology.ParseGenSpec(name) // a gen-* name, parsed above
	return topology.Generate(p)
}

// ValidTopologyName checks a -topology value without paying to build it
// (generating a 100k-node deployment just to validate a submission would
// be its own denial of service).
func ValidTopologyName(name string) error {
	for _, d := range deployments {
		if d.name == name {
			return nil
		}
	}
	if _, ok, err := topology.ParseGenSpec(name); ok {
		return err
	}
	return fmt.Errorf("unknown topology %q", name)
}

// RegisteredStacks lists the protocol names a Params or Spec may name:
// the stack registry's, sorted.
func RegisteredStacks() []string { return stack.Registered() }

// Params selects and parameterises a scenario. The same Params always
// build the same simulation, which is what makes snapshots restorable:
// Meta records them, and Restore rejects a mismatch.
type Params struct {
	Topology *topology.Topology
	// TopologyName is the PickTopology name (stored in snapshot metadata
	// so a resuming process can rebuild the deployment).
	TopologyName string
	// Protocol is a registered stack name (see RegisteredStacks).
	Protocol string
	Seed     int64
	// Period is the per-flow packet period of the run's flow set.
	Period time.Duration
	// MacBoost multiplies the MAC attempt budget (0 or 1 = default). The
	// experiment runners give DiGS 3x: it schedules three attempts per
	// slotframe where Orchestra has one.
	MacBoost int
	// Shards is accepted and ignored: one goroutine steps the network on
	// either medium. It stays so that specs naming it keep their hashes.
	Shards int
	// Flows requests that many random flow sources instead of the
	// deployment's suggested ones (see Build for the rule). Build resolves
	// the flow set once; the WirelessHART Network Manager dimensions its
	// central schedule by it, and Measure drives it.
	Flows int
}

// Scenario is a built, runnable protocol scenario: the simulated network
// plus the one stack contract (stack.Bundle) over whichever registered
// stack runs on it — sc.MACNode(i), sc.OnDeliver(fn), sc.Prober(sc.NW),
// sc.Healer(sc.NW), sc.Schedule(id, asn) are the bundle's methods.
type Scenario struct {
	Params Params
	NW     *sim.Network
	// FlowSet is the run's flows, resolved once by Build.
	FlowSet []flows.Flow
	stack.Bundle
}

// Joined returns how many nodes are synchronised and joined.
func (sc *Scenario) Joined() int { return sc.JoinedCount() }

// Build constructs the scenario: a fresh network with the selected stack
// attached to every node, not yet stepped, and the run's flow set — the
// deployment's suggested sources, or, when p.Flows asks for a number or
// the deployment suggests none, that many random ones (8 by default)
// drawn from the seed, all at p.Period.
func Build(p Params) (*Scenario, error) {
	if p.Topology == nil {
		topo, err := PickTopology(p.TopologyName)
		if err != nil {
			return nil, err
		}
		p.Topology = topo
	}
	if p.TopologyName == "" {
		p.TopologyName = p.Topology.Name
	}
	if p.Period == 0 {
		p.Period = 5 * time.Second
	}
	codec, err := stack.Lookup(p.Protocol)
	if err != nil {
		return nil, err
	}
	fset, err := flowSet(p)
	if err != nil {
		return nil, err
	}
	// The medium is a function of the topology alone: equal spec hashes
	// must mean equal result bytes, and the two media draw their
	// randomness differently.
	var nw *sim.Network
	if p.Topology.SparseOnly() {
		nw = sim.NewScaleNetwork(p.Topology, p.Seed)
	} else {
		nw = sim.NewNetwork(p.Topology, p.Seed)
	}
	macCfg := mac.DefaultConfig()
	if p.MacBoost > 1 {
		macCfg.MaxTxPerPacket *= p.MacBoost
	}
	net, err := codec.Build(nw, stack.BuildArgs{Seed: p.Seed, Flows: fset}, macCfg)
	if err != nil {
		return nil, err
	}
	return &Scenario{Params: p, NW: nw, FlowSet: fset, Bundle: net}, nil
}

// flowSet is Build's flow-set rule.
func flowSet(p Params) ([]flows.Flow, error) {
	topo := p.Topology
	if p.Flows <= 0 && len(topo.SuggestedSources) > 0 {
		return flows.FixedSet(topo.SuggestedSources, p.Period), nil
	}
	n := p.Flows
	if n <= 0 {
		n = 8
	}
	return flows.RandomSet(topo, n, p.Period, rand.New(rand.NewSource(p.Seed)))
}

// BuildFromMeta rebuilds the scenario a snapshot was taken from, using the
// parameters its metadata records.
func BuildFromMeta(m snapshot.Meta) (*Scenario, error) {
	p := Params{
		TopologyName: m.Topology,
		Protocol:     m.Protocol,
		Seed:         m.Seed,
	}
	if v := m.Extra["period"]; v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return nil, fmt.Errorf("snapshot meta period %q: %w", v, err)
		}
		p.Period = d
	}
	if v := m.Extra["mac_boost"]; v != "" {
		b, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("snapshot meta mac_boost %q: %w", v, err)
		}
		p.MacBoost = b
	}
	if v := m.Extra["flows"]; v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("snapshot meta flows %q: %w", v, err)
		}
		p.Flows = n
	}
	sc, err := Build(p)
	if err != nil {
		return nil, err
	}
	if sc.ConfigHash() != m.ConfigHash {
		return nil, fmt.Errorf("snapshot configuration hash %016x, this build produces %016x (config drift?)",
			m.ConfigHash, sc.ConfigHash())
	}
	return sc, nil
}

// Take captures the scenario at the current slot under the given label.
// Extra entries land in the metadata next to the params needed to rebuild.
func (sc *Scenario) Take(label string, extra map[string]string) (*snapshot.Snapshot, error) {
	meta := snapshot.Meta{
		Topology:   sc.Params.TopologyName,
		Seed:       sc.Params.Seed,
		ConfigHash: sc.ConfigHash(),
		Label:      label,
		Extra:      map[string]string{"period": sc.Params.Period.String()},
	}
	if sc.Params.MacBoost > 1 {
		meta.Extra["mac_boost"] = strconv.Itoa(sc.Params.MacBoost)
	}
	if sc.Params.Flows > 0 {
		meta.Extra["flows"] = strconv.Itoa(sc.Params.Flows)
	}
	for k, v := range extra {
		meta.Extra[k] = v
	}
	return snapshot.Take(meta, sc.NW, sc.Bundle)
}

// Restore overlays the snapshot onto this freshly built, never-stepped
// scenario.
func (sc *Scenario) Restore(s *snapshot.Snapshot) error {
	if s.Meta.ConfigHash != sc.ConfigHash() {
		return fmt.Errorf("snapshot configuration hash %016x, scenario built %016x",
			s.Meta.ConfigHash, sc.ConfigHash())
	}
	return s.Restore(sc.NW, sc.Bundle)
}

// CacheKey is the warm-start cache identity of this scenario at a phase
// label.
func (sc *Scenario) CacheKey(label string) snapshot.Key {
	return snapshot.Key{
		Topology:   sc.Params.TopologyName,
		Protocol:   sc.Params.Protocol,
		Seed:       sc.Params.Seed,
		ConfigHash: sc.ConfigHash(),
		Label:      label,
	}
}
