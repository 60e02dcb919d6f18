package chaos_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/campaign"
	"github.com/digs-net/digs/internal/chaos"
	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/telemetry"
	"github.com/digs-net/digs/internal/topology"
)

// goldenOutcome is everything the recovery analyzer says about one
// scripted run, comparable with ==.
type goldenOutcome struct {
	FormSlots int64
	StartASN  int64
	TTRSlots  int64
	Generated int
	Lost      int
}

// scriptedDeath runs the golden scenario once: form the DiGS stack on
// Testbed A, kill relay node 10 for a minute via a chaos plan while the
// suggested sources send, and report the recovery metrics.
func scriptedDeath(seed int64) (goldenOutcome, error) {
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, seed)
	net, err := core.Build(nw, core.DefaultConfig(topo.NumAPs), mac.DefaultConfig(), seed)
	if err != nil {
		return goldenOutcome{}, err
	}
	formSlots, ok := nw.RunUntil(sim.SlotsFor(6*time.Minute), func() bool {
		return net.JoinedCount() == topo.N()
	})
	if !ok {
		return goldenOutcome{}, fmt.Errorf("only %d/%d joined", net.JoinedCount(), topo.N())
	}
	nw.Run(sim.SlotsFor(10 * time.Second))

	plan := &chaos.Plan{
		Name: "scripted-death",
		Seed: seed,
		Entries: []chaos.Entry{{
			Kind:      chaos.KindNodeCrash,
			Targets:   []topology.NodeID{10},
			Start:     chaos.Duration(10 * time.Second),
			Duration:  chaos.Duration(60 * time.Second),
			LoseState: true,
		}},
	}
	rec := chaos.NewRecovery()
	inj, err := chaos.Apply(nw, plan, rec, chaos.Hooks{
		Reboot: func(id topology.NodeID, asn sim.ASN, lose bool) {
			net.Reboot(id, asn, lose)
		},
	})
	if err != nil {
		return goldenOutcome{}, err
	}
	net.SetTracer(telemetry.Multi(rec, inj))
	telemetry.AttachSim(nw, rec)

	const period = 5 * time.Second
	fset := flows.FixedSet(topo.SuggestedSources, period)
	const window = 2 * time.Minute
	flows.Schedule(nw, fset, int(window/period), func(f flows.Flow, seq uint16, asn sim.ASN) {
		if nw.Failed(f.Source) {
			return
		}
		nw.Wake(f.Source)
		_ = net.Nodes[int(f.Source)].InjectData(&sim.Frame{
			Origin: f.Source, FlowID: f.ID, Seq: seq, BornASN: asn,
		})
	})
	nw.Run(sim.SlotsFor(window + 45*time.Second))
	net.SetTracer(nil)
	if err := rec.Flush(); err != nil {
		return goldenOutcome{}, err
	}

	reps := rec.Report()
	if len(reps) != 1 {
		return goldenOutcome{}, fmt.Errorf("got %d fault reports, want 1", len(reps))
	}
	r := reps[0]
	return goldenOutcome{
		FormSlots: formSlots,
		StartASN:  int64(r.StartASN),
		TTRSlots:  r.TTRSlots,
		Generated: r.Generated,
		Lost:      r.Lost,
	}, nil
}

// TestScriptedDeathDeterministic is the golden determinism check for the
// fault engine: one scripted node death on Testbed A yields the exact same
// time-to-reconverge and lost-packet count on every run — sequentially and
// under the campaign runner at any worker count.
func TestScriptedDeathDeterministic(t *testing.T) {
	const seed = 7
	want, err := scriptedDeath(seed)
	if err != nil {
		t.Fatal(err)
	}
	if want.TTRSlots < 0 {
		t.Fatalf("scenario never reconverged: %+v", want)
	}
	if want.Generated == 0 {
		t.Fatalf("no packets attributed to the fault window: %+v", want)
	}
	t.Logf("golden outcome: %+v", want)

	for _, workers := range []int{1, 4} {
		got, err := campaign.Map(campaign.New(workers), 2, func(int) (goldenOutcome, error) {
			return scriptedDeath(seed)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range got {
			if g != want {
				t.Fatalf("workers=%d job %d diverged:\n got %+v\nwant %+v", workers, i, g, want)
			}
		}
	}
}
