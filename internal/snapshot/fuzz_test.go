package snapshot_test

import (
	"bytes"
	"os"
	"testing"

	// Linking the scenario layer links every registered stack, and a
	// linked stack has registered its codec: the fuzzer reaches every
	// stack's decoder.
	_ "github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/snapshot"
)

// FuzzDecodeSnapshot hammers the decoder with arbitrary bytes: corrupt,
// truncated and version-skewed inputs must return an error, never panic,
// and anything that does decode must re-encode canonically (encode ∘
// decode is a fixed point).
func FuzzDecodeSnapshot(f *testing.F) {
	for _, synth := range []*snapshot.Snapshot{synthDiGS(), synthOrchestra(), synthWHART(), synthSDN(), synthAdaptive(), synthSparse()} {
		b, err := snapshot.Encode(synth)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		mut := append([]byte(nil), b...)
		mut[len(mut)/3] ^= 0xFF
		f.Add(mut)
	}
	f.Add([]byte(magic))
	f.Add([]byte{})
	// A real version-3 file: mutations reach the older "mac" layout.
	v3, err := os.ReadFile("../scenario/testdata/half-testbed-a-whart-v3.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := snapshot.Decode(data)
		if err != nil {
			return
		}
		b2, err := snapshot.Encode(s)
		if err != nil {
			t.Fatalf("decoded snapshot fails to encode: %v", err)
		}
		s2, err := snapshot.Decode(b2)
		if err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
		b3, err := snapshot.Encode(s2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(b2, b3) {
			t.Fatal("encode∘decode is not a fixed point")
		}
	})
}
