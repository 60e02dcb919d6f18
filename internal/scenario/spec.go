package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/digs-net/digs/internal/chaos"
	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
)

// Duration is chaos.Duration re-exported for scenario specs: it marshals
// to JSON as a human-readable string ("2m30s") and accepts plain numbers
// as seconds on input.
type Duration = chaos.Duration

// Spec is a complete, JSON-serializable scenario submission: everything
// needed to run one simulation to completion — deployment, protocol,
// traffic, interference, fault plan, monitoring — with nothing left to
// per-CLI wiring. It is the unit of work digs-server accepts and what
// digs-sim runs, read from a -spec file or mapped from its flags, and both
// execute it through the same RunSpec, which is what makes server results
// bit-identical to CLI runs.
//
// Identity is canonical: two specs that differ only in JSON field order,
// omitted-vs-explicit defaults, or the ignored Shards field are the same
// scenario and produce the same Hash — the content address under which
// results are cached.
type Spec struct {
	// Topology is a PickTopology name (testbeds or gen-* specs).
	// Empty defaults to "testbed-a".
	Topology string `json:"topology,omitempty"`
	// Protocol is a registered stack name (RegisteredStacks: digs,
	// orchestra, whart, sdn, adaptive). Empty defaults to "digs".
	Protocol string `json:"protocol,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// Period is the per-flow packet period (default 5s).
	Period Duration `json:"period,omitempty"`
	// Window is the measurement window (default 2m). A fault plan whose
	// horizon outruns it extends the effective window deterministically.
	Window Duration `json:"window,omitempty"`
	// Flows selects that many random flow sources (0 = the deployment's
	// suggested sources, or 8 random ones where it suggests none).
	Flows int `json:"flows,omitempty"`
	// Jammers enables that many WiFi jammers at the deployment's
	// suggested positions.
	Jammers int `json:"jammers,omitempty"`
	// MacBoost multiplies the MAC attempt budget (0 and 1 are the
	// default budget).
	MacBoost int `json:"mac_boost,omitempty"`
	// JoinFraction is the formation target as a fraction of nodes
	// (0 = default: 1.0 for the named testbeds, 0.9 for generated
	// deployments, whose stragglers can legitimately never join).
	JoinFraction float64 `json:"join_fraction,omitempty"`
	// Invariants runs the runtime invariant monitor with self-healing
	// watchdogs during the measurement window.
	Invariants bool `json:"invariants,omitempty"`
	// PlanName selects a built-in chaos plan ("fig8"). Mutually
	// exclusive with Plan.
	PlanName string `json:"plan_name,omitempty"`
	// Plan is an inline chaos fault plan.
	Plan *chaos.Plan `json:"plan,omitempty"`
	// Shards is accepted (0..64) and ignored: one goroutine steps the
	// network. It is excluded from the spec's identity hash, so specs that
	// name it keep their content addresses.
	Shards int `json:"shards,omitempty"`
}

// Spec defaults.
const (
	DefaultTopology = "testbed-a"
	DefaultProtocol = core.Protocol
	DefaultPeriod   = 5 * time.Second
	DefaultWindow   = 2 * time.Minute
	// DefaultGenJoinFraction is the formation target for generated
	// massive-scale deployments, where a tail of poorly placed devices
	// can legitimately never join (the paper's testbeds always form
	// fully).
	DefaultGenJoinFraction = 0.9
)

// IsGenerated reports whether the spec names a procedural gen-* topology.
func (s Spec) IsGenerated() bool { return strings.HasPrefix(s.Topology, "gen-") }

// GenNodes returns the requested node count for a gen-* topology spec and
// 0 for named deployments (or malformed specs, which Validate rejects).
func (s Spec) GenNodes() int {
	if p, ok, err := topology.ParseGenSpec(s.Topology); ok && err == nil {
		return p.Nodes
	}
	return 0
}

// Canonical returns the spec with every default filled in and every
// non-semantic knob normalised, so that all JSON spellings of the same
// scenario collapse to one value. Hash operates on the canonical form;
// Build(p) of a spec and of its canonical form construct the same
// simulation.
func (s Spec) Canonical() Spec {
	c := s
	if c.Topology == "" {
		c.Topology = DefaultTopology
	}
	if c.Protocol == "" {
		c.Protocol = DefaultProtocol
	}
	if c.Period <= 0 {
		c.Period = Duration(DefaultPeriod)
	}
	if c.Window <= 0 {
		c.Window = Duration(DefaultWindow)
	}
	if c.Flows < 0 {
		c.Flows = 0
	}
	if c.Jammers < 0 {
		c.Jammers = 0
	}
	// 0 and 1 are both "no boost" in the build path.
	if c.MacBoost <= 1 {
		c.MacBoost = 1
	}
	if c.JoinFraction <= 0 {
		if c.IsGenerated() {
			c.JoinFraction = DefaultGenJoinFraction
		} else {
			c.JoinFraction = 1.0
		}
	}
	if c.JoinFraction > 1 {
		c.JoinFraction = 1.0
	}
	// Shards is ignored, so it cannot be part of the identity.
	c.Shards = 0
	// An empty plan is no plan.
	if c.Plan != nil && len(c.Plan.Entries) == 0 {
		c.Plan = nil
	}
	return c
}

// Validate checks the spec (in canonical form) for structural errors a
// server should reject at admission rather than at run time.
func (s Spec) Validate() error {
	c := s.Canonical()
	if _, err := stack.Lookup(c.Protocol); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if err := ValidTopologyName(c.Topology); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if c.Jammers > 8 {
		return fmt.Errorf("spec: %d jammers (max 8)", c.Jammers)
	}
	if c.MacBoost > 16 {
		return fmt.Errorf("spec: mac_boost %d (max 16)", c.MacBoost)
	}
	if s.Shards < 0 || s.Shards > 64 {
		return fmt.Errorf("spec: shards %d (want 0..64)", s.Shards)
	}
	if time.Duration(c.Window) > 4*time.Hour {
		return fmt.Errorf("spec: window %v (max 4h)", time.Duration(c.Window))
	}
	if time.Duration(c.Period) > time.Duration(c.Window) {
		return fmt.Errorf("spec: period %v exceeds window %v",
			time.Duration(c.Period), time.Duration(c.Window))
	}
	if c.Plan != nil && c.PlanName != "" {
		return fmt.Errorf("spec: plan and plan_name are mutually exclusive")
	}
	if c.PlanName != "" && c.PlanName != "fig8" {
		return fmt.Errorf("spec: unknown plan_name %q (want \"fig8\")", c.PlanName)
	}
	return nil
}

// Hash returns the spec's content address: a hex SHA-256 over the
// canonical form's deterministic JSON encoding. Field order of the
// original submission, omitted defaults and throughput knobs do not
// change it.
func (s Spec) Hash() (string, error) {
	b, err := json.Marshal(s.Canonical())
	if err != nil {
		return "", fmt.Errorf("spec: encoding for hash: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// WithPlan returns the spec with the fault plan a -plan argument names:
// "fig8" is the built-in Figure 8 plan, anything else a plan file.
func (s Spec) WithPlan(arg string) (Spec, error) {
	if arg == "fig8" {
		s.PlanName = arg
		return s, nil
	}
	p, err := chaos.LoadFile(arg)
	s.Plan = p
	return s, err
}

// Params maps the spec onto the scenario build parameters.
func (s Spec) Params() Params {
	c := s.Canonical()
	mb := c.MacBoost
	if mb <= 1 {
		mb = 0
	}
	return Params{
		TopologyName: c.Topology,
		Protocol:     c.Protocol,
		Seed:         c.Seed,
		Period:       time.Duration(c.Period),
		MacBoost:     mb,
		Flows:        c.Flows,
	}
}
