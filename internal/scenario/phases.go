package scenario

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"github.com/digs-net/digs/internal/chaos"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/interference"
	"github.com/digs-net/digs/internal/invariant"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/telemetry"
	"github.com/digs-net/digs/internal/topology"
)

// The phases of a run, each written once. Every result the repository
// reports comes from the same procedure — form, observe, jam, pick flows,
// drive them, read the energy window — and RunSpec is its canonical
// composition; the CLIs and the figure runners compose the same phases for
// what a Result does not carry (per-flow rates, a recovery table, a repair
// time). The order is fixed, because two contracts hang on it: observers
// attach after formation, so a warm-started run emits the stream of a cold
// one, and a fault plan's epoch is the slot Observe is called at, so jammers
// and flows that follow start on the plan's clock.

// chunkSlots is how many slots run between cancellation checks: the
// simulator has no preemption points, so cancellation latency is one chunk
// (50 simulated seconds), not one slot.
const chunkSlots = 5000

// runChunks advances the network in chunks, checking for cancellation
// between them.
func runChunks(ctx context.Context, nw *sim.Network, slots int64) error {
	for slots > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := min(slots, chunkSlots)
		nw.Run(n)
		slots -= n
	}
	return ctx.Err()
}

// JoinTarget is the number of joined nodes a join fraction asks of an
// n-node deployment, clamped to [1, n].
func JoinTarget(frac float64, n int) int {
	return max(1, min(n, int(math.Ceil(frac*float64(n)))))
}

// Formation is what the formation phase reports — the same values whether
// the network was simulated or restored.
type Formation struct {
	// Slots is how long the join target took (the settling run excluded).
	Slots int64
	// Joined is how many nodes were joined when the settling run ended.
	Joined int
	// Warm reports that the cache supplied the formed network.
	Warm bool
}

// Form brings a freshly built scenario to its formed and settled state:
// run until frac of the nodes have joined (giving up after timeout), then
// run the settling margin. With a cache, that state is restored from it
// when an entry is there and stored when not; continuing from either is
// bit-identical. Entries are labelled formed[NN]+<settle>s (NN = the join
// percentage, omitted at 100) and carry formed_slots and joined_at_form
// beside the build parameters; an entry lacking either — older writers
// recorded one or neither — or one that took longer than this caller's
// timeout is a miss, re-formed and overwritten, and is judged before
// anything is restored. Without a cache no snapshot is taken.
//
// Cancelling ctx abandons formation at the next chunk boundary with
// ctx.Err().
func (sc *Scenario) Form(ctx context.Context, cache *snapshot.Cache, frac float64,
	timeout, settle time.Duration) (Formation, error) {
	const slotsKey, joinedKey = "formed_slots", "joined_at_form"
	n := sc.Params.Topology.N()
	target := JoinTarget(frac, n)
	maxSlots := sim.SlotsFor(timeout)
	pct := ""
	if frac < 1 {
		pct = strconv.Itoa(int(math.Round(frac * 100)))
	}
	label := fmt.Sprintf("formed%s+%ds", pct, int(settle.Seconds()))
	key := sc.CacheKey(label)
	if cache != nil {
		snap, err := cache.Load(key)
		if err != nil {
			return Formation{}, err
		}
		if snap != nil {
			slots, errS := strconv.ParseInt(snap.Meta.Extra[slotsKey], 10, 64)
			joined, errJ := strconv.Atoi(snap.Meta.Extra[joinedKey])
			if errS == nil && errJ == nil && slots <= maxSlots {
				if err := sc.Restore(snap); err != nil {
					return Formation{}, err
				}
				return Formation{Slots: slots, Joined: joined, Warm: true}, nil
			}
		}
	}

	var f Formation
	for formed := false; !formed; {
		if f.Slots >= maxSlots {
			return Formation{}, fmt.Errorf("only %d/%d nodes joined during formation (target %d)",
				sc.Joined(), n, target)
		}
		if err := ctx.Err(); err != nil {
			return Formation{}, err
		}
		ran, ok := sc.NW.RunUntil(min(maxSlots-f.Slots, chunkSlots), func() bool { return sc.Joined() >= target })
		f.Slots += ran
		formed = ok
	}
	sc.NW.Run(sim.SlotsFor(settle))
	f.Joined = sc.Joined()
	if cache != nil {
		snap, err := sc.Take(label, map[string]string{
			slotsKey:  strconv.FormatInt(f.Slots, 10),
			joinedKey: strconv.Itoa(f.Joined),
		})
		if err != nil {
			return Formation{}, err
		}
		if err := cache.Store(key, snap); err != nil {
			return Formation{}, err
		}
	}
	return f, nil
}

// Observer is the observer chain of one run, attached by Observe.
type Observer struct {
	sc    *Scenario
	chain telemetry.Tracer
	// Monitor is the invariant monitor, nil unless one was asked for.
	Monitor *invariant.Monitor
}

// Observe attaches a run's observers at the current slot: the caller's
// tracer (nil = none); with invariants, the invariant monitor behind it —
// emitting its violations into the tracer, healing through the stack's
// reboot path, chained after the tracer so it never sees its own
// emissions; and with a plan, the fault injector, which schedules the plan
// from this slot (the plan epoch), emits into the same chain and rides the
// stack's tracer to watch routes reconverge. Without a chain the plan runs
// silently: the injector reports nothing, so it rides no tracer. The stack
// and the engine's collision hook both feed the chain. Call it after
// formation: the monitor's checks gate on joined state, and a warm-started
// run must emit what a cold one does.
func (sc *Scenario) Observe(tracer telemetry.Tracer, invariants bool, plan *chaos.Plan) (*Observer, error) {
	nw := sc.NW
	o := &Observer{sc: sc, chain: tracer}
	if invariants {
		o.Monitor = invariant.New(invariant.Config{Emit: tracer, Heal: sc.Healer(nw)})
		o.chain = telemetry.Multi(tracer, o.Monitor)
		invariant.Attach(nw, o.Monitor, sc.Prober(nw))
	}
	var injector telemetry.Tracer
	if plan != nil {
		live := func() int {
			n := 0
			for i := 1; i <= sc.Params.Topology.N(); i++ {
				if !nw.Failed(topology.NodeID(i)) {
					n++
				}
			}
			return n
		}
		inj, err := chaos.Apply(nw, plan, o.chain, chaos.Hooks{
			Converged: func() bool { return sc.Joined() >= live() },
			Reboot:    sc.Reboot,
		})
		if err != nil {
			return nil, err
		}
		injector = inj
	}
	if o.chain != nil {
		sc.SetTracer(telemetry.Multi(o.chain, injector))
		telemetry.AttachSim(nw, o.chain)
	}
	return o, nil
}

// Close detaches the chain from the stack and the engine and flushes it.
func (o *Observer) Close() error {
	o.sc.SetTracer(nil)
	telemetry.AttachSim(o.sc.NW, nil)
	if o.chain == nil {
		return nil
	}
	return o.chain.Flush()
}

// Jam switches on n WiFi jammers, from the current slot on, at the
// deployment's suggested positions — as many as it has, at most — cycling
// the three non-overlapping 802.11 channels. It returns the channel of each
// jammer switched on, in position order.
func (sc *Scenario) Jam(n int) []int {
	topo := sc.Params.Topology
	var channels []int
	for j := 0; j < n && j < len(topo.SuggestedJammers); j++ {
		wifiCh := []int{1, 6, 11}[j%3]
		sc.NW.AddInterferer(&interference.Window{
			Source:   interference.NewWiFiJammer(topo, topo.SuggestedJammers[j], wifiCh, sc.Params.Seed+int64(j)),
			StartASN: sc.NW.ASN(),
		})
		channels = append(channels, wifiCh)
	}
	return channels
}

// Drive schedules one window of periodic traffic from the current slot:
// packets packets per flow, numbered from seqBase (back-to-back windows
// need disjoint ranges: the MAC's duplicate suppression remembers (origin,
// flow, seq) end to end). A non-nil collector counts what is sent and,
// taking over the stack's delivery hook, what arrives; nil drives
// unmeasured priming traffic and leaves the hook alone.
//
// A crashed source generates nothing — a dead mote sends no packets, so
// none are counted lost, and a packet falling due in the crash slot is not
// generated (the plan's events queue before the flows'). That only matters
// where sources can die: a fault plan naming one (digs-sim -fail is one).
// The Figure 11 victims exclude the sources, and the Figure 8 plan crashes
// only the jammer motes, which every flow set drawn under it excludes.
func (sc *Scenario) Drive(fset []flows.Flow, packets int, seqBase uint16, col *metrics.Collector) {
	if col != nil {
		sc.OnDeliver(func(asn sim.ASN, f *sim.Frame) { col.Delivered(f.FlowID, f.Seq, asn) })
	}
	flows.Schedule(sc.NW, fset, packets, func(f flows.Flow, seq uint16, asn sim.ASN) {
		if sc.NW.Failed(f.Source) {
			return
		}
		seq += seqBase
		if col != nil {
			col.Sent(f.ID, seq, asn)
		}
		_ = sc.Inject(f.Source, f.ID, seq) // a full queue drops it: counted sent, never delivered
	})
}

// Inject hands src's MAC one data packet of the flow, born at the current
// slot, and returns the MAC's error (a full queue). It is the one way a
// program feeds a network, because it is the one place that knows the nap
// contract: the slot loop skips a napping node until its nap ends, so the
// source is woken before the enqueue, or the packet would wait out a nap
// its node took with nothing to send.
func (sc *Scenario) Inject(src topology.NodeID, flow, seq uint16) error {
	sc.NW.Wake(src)
	return sc.MACNode(int(src)).InjectData(&sim.Frame{
		Origin: src, FlowID: flow, Seq: seq, BornASN: sc.NW.ASN(),
	})
}

// Energy reads the MAC-layer energy model summed over all nodes — joules
// spent and radio-on time since the build — napping nodes settled up to
// the current slot first. An energy window is the difference of two reads.
func (sc *Scenario) Energy() (joules float64, radioOn time.Duration) {
	sc.NW.SettleNaps()
	for i := 1; i <= sc.Params.Topology.N(); i++ {
		st := sc.MACNode(i).Stats()
		joules += st.EnergyJoules
		radioOn += st.RadioOnTime
	}
	return joules, radioOn
}
