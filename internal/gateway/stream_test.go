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
// engines, read from a server directly and through an R = 1 gateway.
func TestStreamMatchesDirectTrace(t *testing.T) {
	for _, spec := range []scenario.Spec{
		testSpec(5), // dense engine
		{Topology: "gen-plant-300-1", Protocol: "digs", Seed: 3, Window: scenario.Duration(20 * time.Second)}, // sparse engine
	} {
		var trace bytes.Buffer
		if _, _, err := scenario.RunSpec(context.Background(), spec,
			scenario.RunOpts{Tracer: telemetry.NewJSONL(&trace)}); err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSuffix(trace.String(), "\n"), "\n")
		if want[0] != string(telemetry.HeaderLine()) {
			t.Fatalf("%s: direct trace opens with %q, not the schema header", spec.Topology, want[0])
		}
		for _, path := range []string{"direct", "gateway"} {
			t.Run(spec.Topology+"/"+path, func(t *testing.T) {
				base := newBackendTS(t, "b0").URL
				if path == "gateway" {
					_, gts := newTestGateway(t, Config{Backends: []string{base}, Replicas: 1})
					base = gts.URL
				}
				cl := server.Client{Base: base}
				resp := mustSubmit(t, cl, spec)
				if resp.Code != http.StatusAccepted {
					t.Fatalf("submit: HTTP %d (%s)", resp.Code, resp.Error)
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
