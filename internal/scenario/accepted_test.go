package scenario

import (
	"context"
	"strings"
	"testing"
	"time"
)

// knownRunFailures is the documented list (DESIGN.md §17) of the named
// deployment × stack runs that end in an error instead of result bytes,
// each with a substring of the error it ends in.
var knownRunFailures = map[[2]string]string{
	// sdn's controller cannot form this field (ROADMAP item 8).
	{"random-150", "sdn"}: "nodes joined during formation",
}

// TestEveryAcceptedRunEncodes: RunSpec over every named deployment × every
// registered stack (seed 1, 10 s window) ends in result bytes, or in the
// error knownRunFailures lists for it — and a listed run that no longer
// fails fails the test, so the list only shrinks on purpose.
func TestEveryAcceptedRunEncodes(t *testing.T) {
	for _, d := range deployments {
		for _, proto := range RegisteredStacks() {
			spec := Spec{Topology: d.name, Protocol: proto, Seed: 1, Window: Duration(10 * time.Second)}
			res, _, err := RunSpec(context.Background(), spec, RunOpts{})
			want, known := knownRunFailures[[2]string{d.name, proto}]
			switch {
			case known && (err == nil || !strings.Contains(err.Error(), want)):
				t.Errorf("%s/%s: got error %v, the known failure is %q", d.name, proto, err, want)
			case known:
			case err != nil:
				t.Errorf("%s/%s: %v", d.name, proto, err)
			default:
				if _, err := res.Encode(); err != nil {
					t.Errorf("%s/%s: result does not encode: %v", d.name, proto, err)
				}
			}
		}
	}
}
