package scenario

import (
	"crypto/sha256"
	"encoding/hex"
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
		snap, err := sc.Take("pin", nil)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := snapshot.Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(wire)
		if got, want := hex.EncodeToString(sum[:]), wirePins[proto]; got != want {
			t.Errorf("%s: snapshot wire digest %s (%d bytes), pinned %s", proto, got, len(wire), want)
		}
	}
}
