package scenario

import (
	"reflect"
	"strings"
	"testing"

	"github.com/digs-net/digs/internal/controller"
	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/orchestra"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/whart"
)

// TestStackRegistry pins the registered stack set: the five stacks are
// present in sorted order, each with its builder, and both rejection paths — Build and spec
// admission — enumerate them so a typo in a submission is a one-glance
// fix.
func TestStackRegistry(t *testing.T) {
	want := []string{
		controller.AdaptiveProtocol, core.Protocol,
		orchestra.Protocol, controller.SDNProtocol, whart.Protocol,
	}
	if got := RegisteredStacks(); !reflect.DeepEqual(got, want) {
		t.Fatalf("RegisteredStacks() = %v, want %v", got, want)
	}
	for _, name := range want {
		if c, err := stack.Lookup(name); err != nil || c.Protocol != name || c.Build == nil {
			t.Errorf("stack.Lookup(%q) = %+v, %v", name, c, err)
		}
	}

	_, err := Build(Params{TopologyName: "half-testbed-a", Protocol: "tcp", Seed: 1})
	if err == nil {
		t.Fatal("Build accepted an unregistered protocol")
	}
	for _, name := range want {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("Build rejection %q does not enumerate %q", err, name)
		}
	}

	err = Spec{Protocol: "tcp"}.Validate()
	if err == nil {
		t.Fatal("Validate accepted an unregistered protocol")
	}
	for _, name := range want {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("spec rejection %q does not enumerate %q", err, name)
		}
	}
}

// TestSpecHashGolden pins the content addresses of representative specs.
// These hashes name cached results on disk and across digs-server
// deployments: a refactor that changes them silently orphans every stored
// result, so any intentional change must be visible here.
func TestSpecHashGolden(t *testing.T) {
	golden := []struct {
		spec Spec
		want string
	}{
		{Spec{},
			"ba22fa7b720f2017515f2464b6e434c8e288aaa58d9511721663acf41fca0725"},
		{Spec{Topology: "testbed-a", Protocol: "digs", Seed: 1},
			"28c60397e5ea0f30d6fc206d1d13480f1f222e8f036bbc0eaf58c17efef8377b"},
		{Spec{Topology: "testbed-b", Protocol: "orchestra", Seed: 2, Jammers: 2},
			"bae31c0d2bfdbb320a166f1c13b262bf97641ed68cf947bc25ead8678fdd2e68"},
		{Spec{Topology: "half-testbed-a", Protocol: "whart", Seed: 3, PlanName: "fig8"},
			"844d9786176d8213471792187c8a765583280baa003ecd23483b31393da9a412"},
		{Spec{Topology: "half-testbed-a", Protocol: "sdn", Seed: 1},
			"8f26330cd5382d04af75695b1b36d500c9bf46781c279a5433952dbfcfdb2c8e"},
		{Spec{Topology: "half-testbed-a", Protocol: "adaptive", Seed: 1},
			"3394d198b9539020504db7ddec58123240a6c3eeae96feb5c4e086e50414a87d"},
	}
	for _, g := range golden {
		h, err := g.spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != g.want {
			t.Errorf("spec %+v: hash drifted to %s (cached results under %s are now orphaned)",
				g.spec, h, g.want)
		}
	}
}

// TestDeploymentNames: every named deployment is in the flag help,
// validates and builds, and an unknown or malformed name is refused by both
// validation and PickTopology.
func TestDeploymentNames(t *testing.T) {
	if len(deployments) != 5 {
		t.Fatalf("%d named deployments, want 5", len(deployments))
	}
	for _, d := range deployments {
		if !strings.Contains(TopologyNames, d.name+", ") {
			t.Errorf("TopologyNames %q does not list %q", TopologyNames, d.name)
		}
		if err := ValidTopologyName(d.name); err != nil {
			t.Errorf("ValidTopologyName(%q): %v", d.name, err)
		}
		if topo, err := PickTopology(d.name); err != nil || topo.N() == 0 {
			t.Errorf("PickTopology(%q) = %v, %v", d.name, topo, err)
		}
	}
	for _, bad := range []string{"testbed-c", "gen-plant-x", ""} {
		if ValidTopologyName(bad) == nil {
			t.Errorf("ValidTopologyName accepted %q", bad)
		}
		if _, err := PickTopology(bad); err == nil {
			t.Errorf("PickTopology accepted %q", bad)
		}
	}
}
