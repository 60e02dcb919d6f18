package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/snapshot"
)

// wirePins are the sha256 of snapshot.Encode(sc.Take("pin", nil)) for every
// registered stack on half-testbed-a, seed 5, after 6000 slots. They pin
// the snapshot wire format byte for byte: a codec change that moves any of
// them is a format change and must bump snapshot.Version (and then, and
// only then, re-record the digests). The digest also covers
// Meta.ConfigHash, the fingerprint of the printed configuration structs, so
// a change to a configuration type moves a stack's pin with the format
// untouched: re-record that one pin, and back it with a `digs-snap diff`
// against the old build's snapshot that prints meta.config_hash and nothing
// else.
var wirePins = map[string]string{
	"adaptive":  "99aaabf760073436c8fe232d8068ff14eb456860ef944088968ca15d202612cc",
	"digs":      "8c67c2f6ef73561b6b154a9167392079d970abb6f8fe8d27a3646b9c35c881dc",
	"orchestra": "9f982b501a64fa709508a31a08ecfb297df01c1bfc09759de8ba705c8832db6a",
	"sdn":       "1ca273b919d8684e2391f207ae31d86932555a773ad3fb358503549186cc45c5",
	"whart":     "eae86842d59443a1f9cc42e4a944f3e6a44db7ba1e22ec38914830137b6850be",
}

// sparsePins are the same digest on the sparse medium, for the stacks that
// form on it: gen-plant-300-1, seed 5, 3000 slots, a 6 dB fade on link 3-4
// and a drifting clock on node 7, 3000 more slots. These snapshots carry
// what no dense one does — the version-2 tail of the "net" section (sparse
// fade pairs, nap vectors) beside drift vectors and no dense Fade overlay.
var sparsePins = map[string]string{
	"adaptive":  "a331d52b9d512077e39724393e903bd8364f40c8fb088bf4b4a24e04915a3ad8",
	"digs":      "0d171b9b57a6499492ad30848bc24ca9d64a85c12bada7a1b7053d3f112b1d77",
	"orchestra": "02d8b38f0a6941dde1c5e88f5caa9e5cd56723fe3fd8eba0fe9dad150b745b21",
	"sdn":       "ccb21a2fb16cf7dc39d59b6c6c2a66abd9591f2844d0f02661fb0691d5681cde",
}

// checkPin takes a snapshot of the scenario and holds it to three things:
// the pinned digest of its bytes, a decode that reproduces what was taken
// (Diff compares field by field and tells an empty table from an absent
// one, so every table has one representation on both sides of the wire),
// and a canonical re-encode.
func checkPin(t *testing.T, sc *Scenario, proto, want string) *snapshot.Snapshot {
	t.Helper()
	snap, err := sc.Take("pin", nil)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := snapshot.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(wire)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s: snapshot wire digest %s (%d bytes), pinned %s", proto, got, len(wire), want)
	}
	dec, err := snapshot.Decode(wire)
	if err != nil {
		t.Fatalf("%s: decode: %v", proto, err)
	}
	if d := snapshot.Diff(snap, dec); len(d) != 0 {
		t.Errorf("%s: the decoded snapshot differs from the one taken:\n%s", proto, strings.Join(d, "\n"))
	}
	if again, err := snapshot.Encode(dec); err != nil || !bytes.Equal(again, wire) {
		t.Errorf("%s: re-encode: %v, %d bytes against %d", proto, err, len(again), len(wire))
	}
	return snap
}

func TestSnapshotWireFormatPinned(t *testing.T) {
	if snapshot.Version != 3 {
		t.Fatalf("snapshot.Version = %d: re-record wirePins for the new format", snapshot.Version)
	}
	for _, proto := range RegisteredStacks() {
		sc, err := Build(Params{TopologyName: testTopo, Protocol: proto, Seed: 5, Period: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		sc.NW.Run(6000)
		checkPin(t, sc, proto, wirePins[proto])
	}
}

func TestSparseSnapshotWireFormatPinned(t *testing.T) {
	for proto, want := range sparsePins {
		sc, err := Build(Params{TopologyName: "gen-plant-300-1", Protocol: proto, Seed: 5, Period: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		sc.NW.Run(3000)
		sc.NW.AddLinkFade(3, 4, 6)
		sc.NW.SetClockDrift(7, 0.01, 9)
		sc.NW.Run(3000)
		net := checkPin(t, sc, proto, want).Net
		if net.FadeLinkIdx == nil || net.NapUntil == nil || net.DriftProb == nil || net.Fade != nil {
			t.Errorf("%s: the sparse pin lost what it is for: fade pairs %v, naps %v, drift %v, dense fade %v",
				proto, net.FadeLinkIdx != nil, net.NapUntil != nil, net.DriftProb != nil, net.Fade != nil)
		}
	}
}
