package gateway

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/server"
	"github.com/digs-net/digs/internal/telemetry"
)

// TestStreamMatchesDirectTrace: a job's SSE telemetry is, line for line
// and byte for byte, the telemetry.JSONL trace of the same spec run in
// process through scenario.RunSpec, schema header first — on both
// engines and on a chaos run with the invariant monitor on, whose trace
// carries every field a packed backlog entry can hold, read from a server
// directly and through an R = 1 gateway, followed live and replayed after
// the job is done.
func TestStreamMatchesDirectTrace(t *testing.T) {
	for _, tc := range []struct {
		spec scenario.Spec
		full bool // the trace must carry RSS, drop reasons, backup parents and invariant codes
	}{
		{testSpec(5), false}, // dense engine
		{scenario.Spec{Topology: "gen-plant-300-1", Protocol: "digs", Seed: 3, Window: scenario.Duration(20 * time.Second)}, false}, // sparse engine
		{scenario.Spec{Topology: "testbed-a", Protocol: "digs", Seed: 30, Window: scenario.Duration(20 * time.Second),
			PlanName: "fig8", Invariants: true}, true},
	} {
		name := tc.spec.Topology
		var trace bytes.Buffer
		if _, _, err := scenario.RunSpec(context.Background(), tc.spec,
			scenario.RunOpts{Tracer: telemetry.NewJSONL(&trace)}); err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSuffix(trace.String(), "\n"), "\n")
		if want[0] != string(telemetry.HeaderLine()) {
			t.Fatalf("%s: direct trace opens with %q, not the schema header", name, want[0])
		}
		if tc.full {
			requireFullTrace(t, name, trace.Bytes())
		}
		for _, leg := range []struct {
			path              string
			viaGateway, after bool // after: subscribe only once the job is done
		}{
			{"direct", false, false},
			{"gateway", true, false},
			{"direct-after-done", false, true},
			{"gateway-after-done", true, true},
		} {
			t.Run(name+"/"+leg.path, func(t *testing.T) {
				base := newBackendTS(t, "b0").URL
				if leg.viaGateway {
					_, gts := newTestGateway(t, Config{Backends: []string{base}, Replicas: 1})
					base = gts.URL
				}
				cl := server.Client{Base: base}
				resp := mustSubmit(t, cl, tc.spec)
				if resp.Code != http.StatusAccepted {
					t.Fatalf("submit: HTTP %d (%s)", resp.Code, resp.Error)
				}
				if leg.after {
					awaitDone(t, cl, resp.JobID)
				}
				got, err := cl.Follow(resp.JobID, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got.Done.Status != server.StatusDone || got.Dropped != 0 {
					t.Fatalf("stream ended %s with %d lines dropped", got.Done.Status, got.Dropped)
				}
				if len(got.Lines) != len(want) {
					t.Fatalf("stream carried %d lines, direct trace %d", len(got.Lines), len(want))
				}
				for i := range want {
					if got.Lines[i] != want[i] {
						t.Fatalf("line %d differs:\nstream: %s\ndirect: %s", i, got.Lines[i], want[i])
					}
				}
			})
		}
	}
}

// requireFullTrace fails unless the trace holds a non-zero RSS, a drop
// reason, a route change with a backup parent, and a violation and a
// repair with their invariant codes.
func requireFullTrace(t *testing.T, name string, trace []byte) {
	t.Helper()
	seen := map[string]bool{}
	if err := telemetry.Scan(bytes.NewReader(trace), func(ev telemetry.Event) error {
		seen["rss"] = seen["rss"] || ev.RSS != 0
		seen["reason"] = seen["reason"] || ev.Reason != telemetry.ReasonNone
		seen["peer2"] = seen["peer2"] || ev.Type == telemetry.EvRouteChange && ev.Peer2 != 0
		seen["violation"] = seen["violation"] || ev.Type == telemetry.EvViolation && ev.Code != 0
		seen["repair"] = seen["repair"] || ev.Type == telemetry.EvRepair && ev.Code != 0
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"rss", "reason", "peer2", "violation", "repair"} {
		if !seen[k] {
			t.Fatalf("%s: the direct trace carries no %s, so the stream cannot be checked on it", name, k)
		}
	}
}
