package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// flushCounter is a ResponseWriter that counts its Flush calls.
type flushCounter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (f flushCounter) Flush() {
	f.n.Add(1)
	f.ResponseWriter.(http.Flusher).Flush()
}

// TestStreamFlushBudget: the relay flushes to its client only before it
// reads from its backend, so relaying a finished job's ~1 000-line stream
// through an R = 1 gateway costs about one flush per backend read, not
// one per line — and the lines are still the direct trace's.
func TestStreamFlushBudget(t *testing.T) {
	spec := testSpec(5)
	spec.Window = scenario.Duration(20 * time.Second)
	var trace bytes.Buffer
	if _, _, err := scenario.RunSpec(context.Background(), spec,
		scenario.RunOpts{Tracer: telemetry.NewJSONL(&trace)}); err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(trace.String(), "\n"), "\n")

	g, _ := newTestGateway(t, Config{Backends: []string{newBackendTS(t, "b0").URL}, Replicas: 1})
	var flushes atomic.Int64
	gh := g.Handler()
	fts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gh.ServeHTTP(flushCounter{w, &flushes}, r)
	}))
	t.Cleanup(fts.Close)
	cl := server.Client{Base: fts.URL}
	resp := mustSubmit(t, cl, spec)
	awaitDone(t, cl, resp.JobID)
	got, err := cl.Follow(resp.JobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Lines, want) || len(want) < 900 {
		t.Fatalf("relayed %d lines, the direct trace has %d (the budget needs at least 900 of them, equal)",
			len(got.Lines), len(want))
	}
	if n, budget := flushes.Load(), int64(len(want)/16); n > budget {
		t.Fatalf("relaying %d lines took %d flushes, want at most %d", len(want), n, budget)
	}
}

// TestStreamRelayHoldsNoLineWhileWaiting: the relay holds back nothing
// while it waits on its backend — a backend whose stream sends k lines,
// flushes and then blocks gets those k lines to the client through the
// gateway before it is released. Everything but the stream is a real
// backend's.
func TestStreamRelayHoldsNoLineWhileWaiting(t *testing.T) {
	const k = 5
	backendURL, err := url.Parse(newBackendTS(t, "b0").URL)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.Handle("/", httputil.NewSingleHostReverseProxy(backendURL))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		fl, ok := server.OpenStream(w, r.PathValue("id"))
		if !ok {
			return
		}
		for i := range k {
			server.WriteEvent(w, "message", fmt.Sprintf(`{"line":%d}`, i))
		}
		fl.Flush()
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		view, _ := json.Marshal(server.View{JobID: r.PathValue("id"), Status: server.StatusDone})
		server.WriteEvent(w, "done", view)
		fl.Flush()
	})
	backend := httptest.NewServer(mux)
	t.Cleanup(backend.Close)
	_, gts := newTestGateway(t, Config{Backends: []string{backend.URL}, Replicas: 1})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock) // before the gateway's cleanup waits on the relay

	cl := server.Client{Base: gts.URL}
	resp := mustSubmit(t, cl, testSpec(1))
	if resp.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", resp.Code, resp.Error)
	}
	gotK := make(chan struct{})
	type followed struct {
		st  *server.Stream
		err error
	}
	done := make(chan followed, 1)
	go func() {
		st, err := cl.Follow(resp.JobID, func(n int) {
			if n == k {
				close(gotK)
			}
		})
		done <- followed{st, err}
	}()
	select {
	case <-gotK:
	case f := <-done:
		t.Fatalf("stream ended before %d lines: %v", k, f.err)
	case <-time.After(30 * time.Second):
		t.Fatalf("the first %d lines did not reach the client while the relay waited on its backend", k)
	}
	unblock()
	f := <-done
	if f.err != nil {
		t.Fatal(f.err)
	}
	if len(f.st.Lines) != k || f.st.Done.Status != server.StatusDone {
		t.Fatalf("stream carried %d lines and ended %s, want %d and done", len(f.st.Lines), f.st.Done.Status, k)
	}
}
