package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/store"
)

// msSince is the wall time since start, in ms.
func msSince(start time.Time) float64 { return float64(time.Since(start)) / 1e6 }

// median of a sample; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return metrics.Quantile(xs, 0.5)
}

// mean of a sample; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return metrics.Mean(xs)
}

// joinTarget is RunSpec's formation target for a join fraction.
func joinTarget(frac float64, n int) int {
	t := int(math.Ceil(frac * float64(n)))
	if t > n {
		t = n
	}
	if t < 1 {
		t = 1
	}
	return t
}

// form runs the scenario until target nodes joined, in RunSpec's chunks
// of at most 5000 slots, then the 30 s settling margin. It returns the
// slots to the target (settling excluded).
func form(sc *scenario.Scenario, target int, timeout time.Duration) (int64, error) {
	maxSlots := sim.SlotsFor(timeout)
	var ran int64
	formed := false
	for ran < maxSlots && !formed {
		budget := maxSlots - ran
		if budget > 5000 {
			budget = 5000
		}
		n, ok := sc.NW.RunUntil(budget, func() bool { return sc.Joined() >= target })
		ran += n
		formed = ok
	}
	if !formed {
		return ran, fmt.Errorf("only %d/%d nodes joined during formation (target %d)",
			sc.Joined(), sc.NW.Topology().N(), target)
	}
	sc.NW.Run(sim.SlotsFor(30 * time.Second))
	return ran, nil
}

// macTotals sums the MAC counters of every node.
type macTotals struct {
	Tx, Rx, Drop, Generated, SinkDelivered, Slots int64
	RadioOn                                       time.Duration
}

func sumMAC(sc *scenario.Scenario) macTotals {
	var t macTotals
	for i := 1; i <= sc.NW.Topology().N(); i++ {
		s := sc.MACNode(i).Stats()
		t.Tx += s.TxData + s.TxControl
		t.Rx += s.RxFrames
		t.Drop += s.DroppedQueue + s.DroppedRetries
		t.Generated += s.Generated
		t.SinkDelivered += s.SinkDelivered
		t.Slots += s.Slots
		t.RadioOn += s.RadioOnTime
	}
	return t
}

func (t macTotals) minus(o macTotals) macTotals {
	return macTotals{
		Tx: t.Tx - o.Tx, Rx: t.Rx - o.Rx, Drop: t.Drop - o.Drop,
		Generated: t.Generated - o.Generated, SinkDelivered: t.SinkDelivered - o.SinkDelivered,
		Slots: t.Slots - o.Slots, RadioOn: t.RadioOn - o.RadioOn,
	}
}

func (t *macTotals) add(o macTotals) {
	t.Tx += o.Tx
	t.Rx += o.Rx
	t.Drop += o.Drop
	t.Generated += o.Generated
	t.SinkDelivered += o.SinkDelivered
	t.Slots += o.Slots
	t.RadioOn += o.RadioOn
}

// into writes the mac.* metrics for counters summed over netSlots
// network slots.
func (t macTotals) into(m map[string]float64, netSlots int64) {
	if netSlots == 0 {
		return
	}
	k := float64(netSlots) / 1000
	m["mac.tx_per_kslot"] = float64(t.Tx) / k
	m["mac.rx_per_kslot"] = float64(t.Rx) / k
	m["mac.drop_per_kslot"] = float64(t.Drop) / k
	if t.Generated > 0 {
		m["mac.delivery_ratio"] = float64(t.SinkDelivered) / float64(t.Generated)
	}
	if t.Slots > 0 {
		m["mac.duty_cycle"] = float64(t.RadioOn) / float64(time.Duration(t.Slots)*sim.TimeAt(1))
	}
}

// stateDigest fingerprints a scenario's simulated state: the slot, the
// join count and every node's MAC counters. Two runs that diverge in any
// transmission differ here.
func stateDigest(sc *scenario.Scenario) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d\n", sc.NW.ASN(), sc.Joined())
	for i := 1; i <= sc.NW.Topology().N(); i++ {
		fmt.Fprintf(h, "%+v\n", sc.MACNode(i).Stats())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// roundTrip takes a snapshot of sc, encodes and decodes it, rebuilds the
// scenario from the snapshot's metadata and restores into it, timing each
// step under tr. It returns the restored scenario and the step times in
// ms keyed by snapshot.* metric name.
func roundTrip(tr *tracer, sc *scenario.Scenario) (*scenario.Scenario, map[string]float64, error) {
	m := map[string]float64{}
	step := func(name string, fn func() error) error {
		id := tr.begin(layerSnapshot, name)
		start := time.Now()
		err := fn()
		m["snapshot."+name+"_ms"] = msSince(start)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("snapshot %s: %w", name, err)
		}
		return nil
	}
	var snap, dec *snapshot.Snapshot
	var enc []byte
	var restored *scenario.Scenario
	err := step("take", func() (err error) { snap, err = sc.Take("bench", nil); return })
	if err == nil {
		err = step("encode", func() (err error) { enc, err = snapshot.Encode(snap); return })
	}
	if err == nil {
		err = step("decode", func() (err error) { dec, err = snapshot.Decode(enc); return })
	}
	if err == nil {
		id := tr.begin(layerScenario, "build_from_meta")
		restored, err = scenario.BuildFromMeta(dec.Meta)
		tr.end(id)
	}
	if err == nil {
		err = step("restore", func() error { return restored.Restore(dec) })
	}
	if err != nil {
		return nil, nil, err
	}
	m["snapshot.bytes"] = float64(len(enc))
	return restored, m, nil
}

// storageLegs times the warm pool and the atomic writer under dir: one
// cache store and load of sc's snapshot, and five fsync'd writes each of
// a result-sized and a snapshot-sized file.
func storageLegs(tr *tracer, sc *scenario.Scenario, dir string) (map[string]float64, error) {
	m := map[string]float64{}
	snap, err := sc.Take("bench", nil)
	if err != nil {
		return nil, fmt.Errorf("snapshot take: %w", err)
	}
	enc, err := snapshot.Encode(snap)
	if err != nil {
		return nil, fmt.Errorf("snapshot encode: %w", err)
	}
	cache := &snapshot.Cache{Dir: filepath.Join(dir, "warm")}
	key := sc.CacheKey("bench")

	id := tr.begin(layerSnapshot, "cache_store")
	start := time.Now()
	err = cache.Store(key, snap)
	m["snapshot.cache_store_ms"] = msSince(start)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("snapshot cache store: %w", err)
	}

	id = tr.begin(layerSnapshot, "cache_load")
	start = time.Now()
	loaded, err := cache.Load(key)
	m["snapshot.cache_load_ms"] = msSince(start)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("snapshot cache load: %w", err)
	}
	if loaded == nil {
		return nil, fmt.Errorf("snapshot cache load: miss right after store")
	}
	if again, err := snapshot.Encode(loaded); err != nil || !bytes.Equal(again, enc) {
		return nil, fmt.Errorf("snapshot cache load: bytes differ from what was stored (%v)", err)
	}

	small := bytes.Repeat([]byte{'x'}, 600) // a canonical result is ~600 bytes
	for name, data := range map[string][]byte{"write_small": small, "write_snap": enc} {
		var ms []float64
		for i := 0; i < 5; i++ {
			id := tr.begin(layerStore, name)
			start := time.Now()
			err := store.WriteFileAtomic(filepath.Join(dir, "store", fmt.Sprintf("%s-%d", name, i)), data)
			ms = append(ms, msSince(start))
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("store %s: %w", name, err)
			}
		}
		m["store."+name+"_ms_p50"] = median(ms)
	}
	return m, nil
}
