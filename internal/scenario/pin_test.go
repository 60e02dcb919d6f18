package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
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
	"adaptive":  "94d479281f5c0cccb95eb398c2f671d802cdd0f5fc63b02c22eb5034b63c3675",
	"digs":      "0aa59f9713ef43eaf99de634337d6204a6e4d25905668b17c35385929cb66f7c",
	"orchestra": "e619f8a33585f69d909599adc4f1fd33bb3c6699c3b3619c01e88a8164b4abe0",
	"sdn":       "ba3d44bf48fc92e9ab6f2b6bf8f1271a1799d491649836671adc9a0ae4177762",
	"whart":     "f87066056b6d3da52a6c53d6ccc538abd77b9680d4092c6aa3d9148bc0573357",
}

// sparsePins are the same digest on the sparse medium, for the stacks that
// form on it: gen-plant-300-1, seed 5, 3000 slots, a 6 dB fade on link 3-4
// and a drifting clock on node 7, 3000 more slots. These snapshots carry
// what no dense one does — sparse fade pairs in the version-2 tail of the
// "net" section — beside drift vectors and no dense Fade overlay; like a
// dense one, a sparse capture ends every nap and carries no nap vectors.
var sparsePins = map[string]string{
	"adaptive":  "c24a5df0e0a729b96312e317bd7fb9e40c52370308b1552cc9b4f2567d99d844",
	"digs":      "55545f9b033438bc3f2a4c45f4d2915c924fa8cf11a619d52d1870ecd6877452",
	"orchestra": "c1a97408817f9471e606020ad14ec7e0e0b631b24f947c4cd4e0b0f79497040e",
	"sdn":       "935c4af9923e844ec848c173146bb1dfbe233df338df39855809b7633387573c",
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
	if snapshot.Version != 4 {
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
		if net.FadeLinkIdx == nil || net.NapUntil != nil || net.DriftProb == nil || net.Fade != nil {
			t.Errorf("%s: the sparse pin lost what it is for: fade pairs %v, nap vectors %v, drift %v, dense fade %v",
				proto, net.FadeLinkIdx != nil, net.NapUntil != nil, net.DriftProb != nil, net.Fade != nil)
		}
	}
}

// v3File is a version-3 snapshot, as a build that wrote that format took it
// with `digs-snap take -topology half-testbed-a -protocol whart -seed 5
// -slots 6000`. Its "mac" section carries the fields version 4 retired.
const v3File = "testdata/half-testbed-a-whart-v3.snap"

// TestDecodeVersion3File: a real version-3 file decodes, and it differs
// from today's take of the same scenario in one field only — the
// configuration fingerprint, which hashes the printed mac.Config and so
// moved when the retired options left it. Everything the simulation holds
// reads back the same.
func TestDecodeVersion3File(t *testing.T) {
	b, err := os.ReadFile(v3File)
	if err != nil {
		t.Fatal(err)
	}
	if ver := b[len("DIGSSNAP")]; ver != 3 {
		t.Fatalf("%s is format version %d, want 3", v3File, ver)
	}
	old, err := snapshot.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	// BuildFromMeta would refuse the file's configuration hash.
	sc, err := Build(Params{TopologyName: old.Meta.Topology, Protocol: old.Meta.Protocol,
		Seed: old.Meta.Seed, Period: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sc.NW.Run(old.Meta.Slot)
	now, err := sc.Take(old.Meta.Label, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := snapshot.Diff(old, now); len(d) != 1 || !strings.HasPrefix(d[0], "meta.config_hash: ") {
		t.Fatalf("version-3 file against today's take: want only meta.config_hash, got:\n%s", strings.Join(d, "\n"))
	}
}
