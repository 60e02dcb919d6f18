package gateway

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/server"
)

// testSpec is a fast scenario (~tens of ms wall clock).
func testSpec(seed int64) scenario.Spec {
	return scenario.Spec{
		Topology: "half-testbed-a", Protocol: "digs", Seed: seed,
		Period: scenario.Duration(2 * time.Second),
		Window: scenario.Duration(10 * time.Second),
	}
}

// newBackendTS stands up one real digs-server on an httptest listener.
func newBackendTS(t *testing.T, name string) *httptest.Server {
	t.Helper()
	s, err := server.New(server.Config{Workers: 2, DataDir: t.TempDir(), Name: name})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ts
}

func newTestGateway(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ts.Close()
		g.Close()
	})
	return g, ts
}

// mustSubmit posts spec through the shared client and returns whatever the
// tier answered.
func mustSubmit(t *testing.T, cl server.Client, spec scenario.Spec) *server.SubmitResponse {
	t.Helper()
	resp, err := cl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// awaitDone polls the job through cl and demands it ends done.
func awaitDone(t *testing.T, cl server.Client, jobID string) *server.View {
	t.Helper()
	view, err := cl.Await(jobID, time.Now().Add(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != server.StatusDone {
		t.Fatalf("job %s ended %s: %s", jobID, view.Status, view.Error)
	}
	return view
}

func specHash(t *testing.T, spec scenario.Spec) string {
	t.Helper()
	h, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSubmitRoutesAndReplicates(t *testing.T) {
	urls := []string{newBackendTS(t, "b0").URL, newBackendTS(t, "b1").URL, newBackendTS(t, "b2").URL}
	g, ts := newTestGateway(t, Config{Backends: urls, Replicas: 2})

	cl := server.Client{Base: ts.URL}
	spec := testSpec(42)
	resp := mustSubmit(t, cl, spec)
	if resp.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", resp.Code, resp.Error)
	}
	jobID := resp.JobID
	if !strings.HasPrefix(jobID, "g-") {
		t.Fatalf("gateway job ID %q not gateway-scoped", jobID)
	}
	if got := resp.Header.Get(server.HeaderJob); got != jobID {
		t.Fatalf("%s header %q, want %q", server.HeaderJob, got, jobID)
	}

	view := awaitDone(t, cl, jobID)
	if view.JobID != jobID {
		t.Fatalf("view carries job ID %q, want the gateway's %q", view.JobID, jobID)
	}
	code, rbody, rhdr, err := cl.Get("/v1/jobs/" + jobID + "/result")
	if err != nil || code != http.StatusOK {
		t.Fatalf("result read: HTTP %d (%v)", code, err)
	}
	sum := sha256.Sum256(bytes.TrimSpace(rbody))
	if got := hex.EncodeToString(sum[:]); got != view.ResultHash {
		t.Fatalf("result hashes to %s, view reports %s", got, view.ResultHash)
	}
	if got := rhdr.Get("X-DiGS-Result-Hash"); got != view.ResultHash {
		t.Fatalf("result read header X-DiGS-Result-Hash %q, want %q", got, view.ResultHash)
	}

	// R-way placement: both replicas must hold the stored result.
	hash := specHash(t, spec)
	replicas, _ := g.replicaSet(hash)
	for _, b := range replicas {
		ok := false
		for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
			resp, err := http.Get(b.base + "/v1/results/" + hash)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					ok = true
					break
				}
			}
		}
		if !ok {
			t.Fatalf("replica %s never received the result — replication broke", b.key)
		}
	}

	// A byte-identical resubmission is a 200 cache hit through the tier.
	if dup := mustSubmit(t, cl, spec); dup.Code != http.StatusOK || !dup.Cached {
		t.Fatalf("duplicate submit: HTTP %d cached=%v, want a 200 cache hit", dup.Code, dup.Cached)
	}
}

// TestSubmitFailsOverDeadPrimary: the spec's primary replica is a dead
// address; the submission must land on a survivor with no client error.
func TestSubmitFailsOverDeadPrimary(t *testing.T) {
	// Reserve an address, then close it: connection refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	urls := []string{newBackendTS(t, "b0").URL, newBackendTS(t, "b1").URL, dead}
	g, ts := newTestGateway(t, Config{Backends: urls, Replicas: 2, ProbeInterval: 100 * time.Millisecond})

	// Find a spec whose rendezvous primary is the dead backend.
	var spec scenario.Spec
	found := false
	for seed := int64(100); seed < 200; seed++ {
		spec = testSpec(seed)
		replicas, _ := g.replicaSet(specHash(t, spec))
		if replicas[0].key == dead {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no seed in range ranks the dead backend primary")
	}

	cl := server.Client{Base: ts.URL}
	resp := mustSubmit(t, cl, spec)
	if resp.Code != http.StatusAccepted {
		t.Fatalf("submit with a dead primary: HTTP %d (%s), want 202 via failover", resp.Code, resp.Error)
	}
	awaitDone(t, cl, resp.JobID)
}

// TestHeaderPropagation: the request ID survives submit → status → SSE,
// and the answering backend identifies itself.
func TestHeaderPropagation(t *testing.T) {
	bts := newBackendTS(t, "b0")
	_, ts := newTestGateway(t, Config{Backends: []string{bts.URL}, Replicas: 1})

	const rid = "req-propagation-check"
	cl := server.Client{Base: ts.URL, Header: http.Header{server.HeaderRequest: {rid}}}
	resp := mustSubmit(t, cl, testSpec(7))
	if resp.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.Code)
	}
	if got := resp.Header.Get(server.HeaderRequest); got != rid {
		t.Fatalf("submit echoed %s %q, want %q", server.HeaderRequest, got, rid)
	}

	// Status, then the stream (read to its end as a plain body).
	for _, path := range []string{"/v1/jobs/" + resp.JobID, "/v1/jobs/" + resp.JobID + "/stream"} {
		_, _, hdr, err := cl.Get(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := hdr.Get(server.HeaderRequest); got != rid {
			t.Fatalf("%s echoed %s %q, want %q", path, server.HeaderRequest, got, rid)
		}
		if got := hdr.Get(server.HeaderJob); got != resp.JobID {
			t.Fatalf("%s: %s header %q, want %q", path, server.HeaderJob, got, resp.JobID)
		}
	}

	// A submission without a request ID gets one minted.
	if hdr := mustSubmit(t, server.Client{Base: ts.URL}, testSpec(8)).Header; hdr.Get(server.HeaderRequest) == "" {
		t.Fatalf("gateway minted no %s for an unlabeled request", server.HeaderRequest)
	}

	// The backend names itself on its own surface.
	_, _, hdr, err := server.Client{Base: bts.URL}.Get("/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if got := hdr.Get(server.HeaderBackend); got != "b0" {
		t.Fatalf("backend %s header %q, want %q", server.HeaderBackend, got, "b0")
	}
}

// TestReadRepair: a result that survives on one replica is
// re-replicated to the rest of its placement by the read path.
func TestReadRepair(t *testing.T) {
	urls := []string{newBackendTS(t, "b0").URL, newBackendTS(t, "b1").URL}
	g, ts := newTestGateway(t, Config{Backends: urls, Replicas: 2})

	spec := testSpec(77)
	hash := specHash(t, spec)
	direct, _, err := scenario.RunSpec(context.Background(), spec, scenario.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := direct.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Seed the result onto exactly one replica via the repair endpoint.
	replicas, _ := g.replicaSet(hash)
	holder, missing := replicas[0], replicas[1]
	resp, err := server.Client{Base: holder.base}.Do(context.Background(), http.DefaultClient,
		http.MethodPut, "/v1/results/"+hash, canonical)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("seeding PUT: HTTP %d", resp.StatusCode)
	}

	// A gateway read serves the single surviving copy...
	gresp, err := http.Get(ts.URL + "/v1/results/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	got := new(bytes.Buffer)
	got.ReadFrom(gresp.Body)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("gateway result read: HTTP %d", gresp.StatusCode)
	}
	if !bytes.Equal(bytes.TrimSpace(got.Bytes()), bytes.TrimSpace(canonical)) {
		t.Fatal("gateway served different result bytes than the surviving copy")
	}

	// ...and heals the under-replicated placement in the background.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mresp, err := http.Get(missing.base + "/v1/results/" + hash)
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		body.ReadFrom(mresp.Body)
		mresp.Body.Close()
		if mresp.StatusCode == http.StatusOK {
			if !bytes.Equal(bytes.TrimSpace(body.Bytes()), bytes.TrimSpace(canonical)) {
				t.Fatal("read-repair replicated different bytes")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %s never read-repaired", missing.key)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestResultPutRejectsNonCanonical: the repair endpoint only accepts
// bytes that decode and re-encode to themselves — a corrupted replica
// cannot be seeded.
func TestResultPutRejectsNonCanonical(t *testing.T) {
	bts := newBackendTS(t, "b0")
	spec := testSpec(78)
	hash := specHash(t, spec)
	resp, err := server.Client{Base: bts.URL}.Do(context.Background(), http.DefaultClient,
		http.MethodPut, "/v1/results/"+hash, []byte(`{"not":"a canonical result"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-canonical PUT: HTTP %d, want 400", resp.StatusCode)
	}
}

// putResult PUTs raw bytes to a backend's repair endpoint and returns
// the status code.
func putResult(t *testing.T, base, hash string, body []byte) int {
	t.Helper()
	resp, err := server.Client{Base: base}.Do(context.Background(), http.DefaultClient,
		http.MethodPut, "/v1/results/"+hash, body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestResultPutValidation: the repair endpoint refuses to file a result
// under a spec hash it was not computed for, and never overwrites an
// existing entry with different bytes — a reachable backend cannot have
// its content-addressed store poisoned through the repair path.
func TestResultPutValidation(t *testing.T) {
	bts := newBackendTS(t, "b0")
	spec := testSpec(79)
	hash := specHash(t, spec)
	res, _, err := scenario.RunSpec(context.Background(), spec, scenario.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Canonical bytes valid for spec A filed under spec B's hash: a later
	// submission of B would be served A's result as a verified cache hit.
	otherHash := specHash(t, testSpec(80))
	if code := putResult(t, bts.URL, otherHash, canonical); code != http.StatusBadRequest {
		t.Fatalf("cross-hash PUT: HTTP %d, want 400", code)
	}

	// Under its own hash the PUT is accepted, and idempotently repeatable.
	if code := putResult(t, bts.URL, hash, canonical); code != http.StatusNoContent {
		t.Fatalf("legitimate PUT: HTTP %d, want 204", code)
	}
	if code := putResult(t, bts.URL, hash, canonical); code != http.StatusNoContent {
		t.Fatalf("idempotent re-PUT: HTTP %d, want 204", code)
	}

	// Different bytes with a matching embedded spec_hash must not replace
	// the stored entry: repair fills missing replicas, never rewrites.
	tampered := *res
	tampered.Delivered++
	tbytes, err := tampered.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if code := putResult(t, bts.URL, hash, tbytes); code != http.StatusConflict {
		t.Fatalf("conflicting PUT: HTTP %d, want 409", code)
	}
	resp, err := http.Get(bts.URL + "/v1/results/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	stored := new(bytes.Buffer)
	stored.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(bytes.TrimSpace(stored.Bytes()), canonical) {
		t.Fatal("conflicting PUT altered the stored result")
	}
}

// TestSubmitShedsDuringFullOutage: with every backend unroutable, a
// submission must degrade to the 503 + Retry-After shed path within the
// retry budget instead of spinning in zero-attempt retry rounds forever.
func TestSubmitShedsDuringFullOutage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()
	_, ts := newTestGateway(t, Config{
		Backends: []string{dead}, Replicas: 1,
		ProbeInterval: 25 * time.Millisecond, ProbeTimeout: 250 * time.Millisecond,
		SubmitRetries: 3,
	})

	// Wait for the probes to mark the fleet unready, so the submission
	// exercises the no-routable-candidate rounds, not transport errors.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gateway over a dead fleet never turned unready")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A hang here is the regression: the client gives a submit 30 s.
	resp, err := server.Client{Base: ts.URL}.Submit(testSpec(82))
	if err != nil {
		t.Fatalf("submission during a full outage never returned: %v", err)
	}
	if resp.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit during full outage: HTTP %d, want 503", resp.Code)
	}
	if server.RetryAfter(resp.Header) <= 0 {
		t.Fatal("shed response carries no Retry-After")
	}
}

// TestResultReadDistinguishesMissFromOutage: a definitive 404 verdict
// from a live backend and an unreachable fleet are different answers —
// only the former may be reported as "result does not exist".
func TestResultReadDistinguishesMissFromOutage(t *testing.T) {
	hash := strings.Repeat("ab", 32)

	// Healthy fleet, unknown hash: a real miss, 404.
	_, ts := newTestGateway(t, Config{Backends: []string{newBackendTS(t, "b0").URL}, Replicas: 1})
	resp, err := http.Get(ts.URL + "/v1/results/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("miss on a healthy fleet: HTTP %d, want 404", resp.StatusCode)
	}

	// Unreachable fleet: no backend rendered a verdict, 503.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()
	_, dts := newTestGateway(t, Config{Backends: []string{dead}, Replicas: 1})
	dresp, err := http.Get(dts.URL + "/v1/results/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("read against a dead fleet: HTTP %d, want 503", dresp.StatusCode)
	}
	if server.RetryAfter(dresp.Header) <= 0 {
		t.Fatal("outage response carries no Retry-After")
	}
}

// TestStreamCachedFallbackReportsGap: when every replica holds only the
// stored result (no live job to stream), the terminating done event must
// be preceded by a dropped event flagging the undeliverable telemetry as
// an indeterminate gap — never silently skipped.
func TestStreamCachedFallbackReportsGap(t *testing.T) {
	bts := newBackendTS(t, "b0")
	g, ts := newTestGateway(t, Config{Backends: []string{bts.URL}, Replicas: 1})

	spec := testSpec(81)
	hash := specHash(t, spec)
	res, _, err := scenario.RunSpec(context.Background(), spec, scenario.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The backend holds the finished result but never held the job.
	if code := putResult(t, bts.URL, hash, canonical); code != http.StatusNoContent {
		t.Fatalf("seeding PUT: HTTP %d", code)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	replicas, _ := g.replicaSet(hash)
	j := g.registerJob(hash, "", specJSON, replicas)

	stream, err := server.Client{Base: ts.URL}.Follow(j.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Indeterminate {
		t.Fatal("cached-result termination reported no dropped gap")
	}
	if len(stream.Lines) != 0 {
		t.Fatalf("cached-result termination delivered %d telemetry lines from nowhere", len(stream.Lines))
	}
	if stream.Done.Status != server.StatusDone {
		t.Fatalf("stream ended %s, want done", stream.Done.Status)
	}
	sum := sha256.Sum256(canonical)
	if got := hex.EncodeToString(sum[:]); stream.Done.ResultHash != got {
		t.Fatalf("done view reports result hash %s, stored bytes hash to %s", stream.Done.ResultHash, got)
	}
}

// TestGatewayReadyz: liveness always answers; readiness follows the
// backends.
func TestGatewayReadyz(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()
	_, ts := newTestGateway(t, Config{Backends: []string{dead}, Replicas: 1, ProbeInterval: 50 * time.Millisecond})

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway over a dead fleet still ready (HTTP %d)", resp.StatusCode)
		}
		time.Sleep(25 * time.Millisecond)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("liveness: HTTP %d, want 200 regardless of the fleet", hresp.StatusCode)
	}
}
