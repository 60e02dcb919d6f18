package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/scenario"
)

// smallSpec is a fast scenario (~tens of ms): 20 nodes, 10 s window.
func smallSpec(seed int64) scenario.Spec {
	return scenario.Spec{
		Topology: "half-testbed-a", Protocol: "digs", Seed: seed,
		Period: scenario.Duration(2 * time.Second),
		Window: scenario.Duration(10 * time.Second),
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx) // second Shutdown in a test that drained itself is a harmless error
	})
	return s, ts
}

// mustSubmit posts spec through the shared Client (as tenant, when set) and
// returns whatever the server answered.
func mustSubmit(t *testing.T, ts *httptest.Server, spec scenario.Spec, tenant string) *SubmitResponse {
	t.Helper()
	cl := Client{Base: ts.URL}
	if tenant != "" {
		cl.Header = http.Header{"X-DiGS-Tenant": {tenant}}
	}
	resp, err := cl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func waitDone(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	j := s.job(id)
	if j == nil {
		t.Fatalf("no job %s", id)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish (status %s)", id, j.Status())
	}
	return j
}

// TestSubmitStreamResult is the end-to-end happy path: submit over HTTP,
// follow the SSE stream to completion, fetch the content-addressed result.
func TestSubmitStreamResult(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	cl := Client{Base: ts.URL}
	resp := mustSubmit(t, ts, smallSpec(5), "")
	if resp.Code != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.Code, resp.Error)
	}

	stream, err := cl.Follow(resp.JobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream.Lines) == 0 {
		t.Fatal("SSE stream carried no telemetry")
	}
	var schema struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal([]byte(stream.Lines[0]), &schema); err != nil || schema.Schema == "" {
		t.Fatalf("first stream line is not the JSONL schema header: %q", stream.Lines[0])
	}
	view := stream.Done
	if view.Status != StatusDone || view.ResultHash == "" || len(view.Result) == 0 {
		t.Fatalf("done view: %+v", view)
	}
	if got := hashBytes(view.Result); got != view.ResultHash {
		t.Fatalf("sha256(done.result) %s != done.result_hash %s", got, view.ResultHash)
	}

	// The job result endpoint serves the canonical bytes with the hash.
	code, body, hdr, err := cl.Get("/v1/jobs/" + resp.JobID + "/result")
	if err != nil || code != http.StatusOK {
		t.Fatalf("result: %d %s (%v)", code, body, err)
	}
	if got := hdr.Get("X-DiGS-Result-Hash"); got != view.ResultHash {
		t.Fatalf("result hash header %q != done view %q", got, view.ResultHash)
	}
	if !bytes.Equal(bytes.TrimSpace(body), view.Result) {
		t.Fatalf("job result and the done event's result differ:\n%s\n%s", body, view.Result)
	}

	// And the content-addressed store serves the same bytes by spec hash.
	code, stored, _, err := cl.Get("/v1/results/" + resp.SpecHash)
	if err != nil || code != http.StatusOK {
		t.Fatalf("stored result: %d (%v)", code, err)
	}
	if !bytes.Equal(bytes.TrimSpace(body), bytes.TrimSpace(stored)) {
		t.Fatalf("job result and stored result differ:\n%s\n%s", body, stored)
	}
	waitDone(t, s, resp.JobID)
}

// TestDuplicateSubmissionServedFromCache: an identical resubmission is a
// content-addressed cache hit — 200 with the stored result, no new job.
func TestDuplicateSubmissionServedFromCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp := mustSubmit(t, ts, smallSpec(7), "")
	if resp.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.Code)
	}
	j := waitDone(t, s, resp.JobID)
	want, _ := j.Result()

	// Same scenario spelled differently (explicit defaults, the ignored shards field).
	dup := smallSpec(7)
	dup.MacBoost = 1
	dup.JoinFraction = 1.0
	dup.Shards = 4
	resp = mustSubmit(t, ts, dup, "")
	if resp.Code != http.StatusOK {
		t.Fatalf("duplicate submit: %d (%s)", resp.Code, resp.Error)
	}
	if !resp.Cached {
		t.Fatalf("duplicate not served from cache: %+v", resp)
	}
	if !bytes.Equal(bytes.TrimSpace(resp.Result), bytes.TrimSpace(want)) {
		t.Fatalf("cached result differs:\n%s\n%s", resp.Result, want)
	}
	if got := s.cacheHits.Load(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
}

// TestInFlightDedup: two identical submissions while the first is still
// queued collapse onto one job.
func TestInFlightDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: WorkersNone})
	resp := mustSubmit(t, ts, smallSpec(9), "")
	if resp.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.Code)
	}
	id := resp.JobID
	resp = mustSubmit(t, ts, smallSpec(9), "")
	if resp.Code != http.StatusAccepted {
		t.Fatalf("dup submit: %d", resp.Code)
	}
	if got := resp.JobID; got != id {
		t.Fatalf("dedup returned a new job %s (want %s)", got, id)
	}
	if !resp.Dedup {
		t.Fatalf("second submission not marked dedup: %+v", resp)
	}
	if got := s.dedupHits.Load(); got != 1 {
		t.Fatalf("dedup hits = %d", got)
	}
}

// TestTenantQuota429: a tenant at its quota is pushed back with 429 and
// Retry-After; other tenants are unaffected.
func TestTenantQuota429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: WorkersNone, TenantQuota: 2, QueueDepth: 16})
	for i := int64(0); i < 2; i++ {
		if resp := mustSubmit(t, ts, smallSpec(100+i), "alice"); resp.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d (%s)", i, resp.Code, resp.Error)
		}
	}
	body, _ := json.Marshal(smallSpec(102))
	req, _ := http.NewRequest("POST", ts.URL+"/v1/scenarios", bytes.NewReader(body))
	req.Header.Set("X-DiGS-Tenant", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// A different tenant still gets in.
	if resp := mustSubmit(t, ts, smallSpec(103), "bob"); resp.Code != http.StatusAccepted {
		t.Fatalf("other tenant: %d", resp.Code)
	}
}

// TestQueueFull429: a full job queue is backpressure, not an error page.
func TestQueueFull429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: WorkersNone, QueueDepth: 1})
	if resp := mustSubmit(t, ts, smallSpec(200), ""); resp.Code != http.StatusAccepted {
		t.Fatal("first submit should fill the queue")
	}
	body, _ := json.Marshal(smallSpec(201))
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestBadSubmissions: malformed and oversized requests are rejected at
// admission with precise status codes.
func TestBadSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: WorkersNone, MaxNodes: 500})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{not json`); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d", code)
	}
	if code := post(`{"topology":"half-testbed-a","bogus_field":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: %d", code)
	}
	if code := post(`{"protocol":"tcp"}`); code != http.StatusBadRequest {
		t.Errorf("bad protocol: %d", code)
	}
	if code := post(`{"topology":"gen-plant-1000-1"}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("over MaxNodes: %d", code)
	}
}

// TestServerMatchesDirectRun: the determinism contract — a server-run
// scenario is bit-identical to running the same spec directly.
func TestServerMatchesDirectRun(t *testing.T) {
	for _, spec := range []scenario.Spec{
		smallSpec(5), // dense engine
		{Topology: "gen-plant-300-1", Protocol: "digs", Seed: 3, Window: scenario.Duration(20 * time.Second)}, // sparse engine
	} {
		t.Run(spec.Topology, func(t *testing.T) {
			direct, _, err := scenario.RunSpec(context.Background(), spec, scenario.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := direct.Encode()
			if err != nil {
				t.Fatal(err)
			}

			s, ts := newTestServer(t, Config{Workers: 1})
			resp := mustSubmit(t, ts, spec, "")
			j := waitDone(t, s, resp.JobID)
			got, _ := j.Result()
			if !bytes.Equal(got, want) {
				t.Fatalf("server result differs from direct run:\nserver: %s\ndirect: %s", got, want)
			}
		})
	}
}

// TestWarmPoolAcrossWindows: a second scenario sharing the formation
// phase (same deployment/protocol/seed, longer window) warm-starts from
// the pool and still matches a direct cold run bit for bit.
func TestWarmPoolAcrossWindows(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp := mustSubmit(t, ts, smallSpec(5), "")
	waitDone(t, s, resp.JobID)
	if s.warmHits.Load() != 0 {
		t.Fatal("first run cannot be a warm hit")
	}

	longer := smallSpec(5)
	longer.Window = scenario.Duration(15 * time.Second)
	resp = mustSubmit(t, ts, longer, "")
	j := waitDone(t, s, resp.JobID)
	if s.warmHits.Load() != 1 {
		t.Fatalf("warm hits = %d, want 1", s.warmHits.Load())
	}
	got, _ := j.Result()

	direct, _, err := scenario.RunSpec(context.Background(), longer, scenario.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("warm-started server result differs from direct cold run:\nserver: %s\ndirect: %s", got, want)
	}
}

// TestShutdownCancelsQueued: draining cancels jobs the workers never
// picked up and refuses new submissions with 503.
func TestShutdownCancelsQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: WorkersNone, QueueDepth: 8})
	var ids []string
	for i := int64(0); i < 3; i++ {
		resp := mustSubmit(t, ts, smallSpec(300+i), "")
		ids = append(ids, resp.JobID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain with no in-flight jobs should not hit the deadline: %v", err)
	}
	for _, id := range ids {
		j := waitDone(t, s, id)
		if j.Status() != StatusCanceled {
			t.Errorf("job %s: %s, want canceled", id, j.Status())
		}
	}
	body, _ := json.Marshal(smallSpec(999))
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

// TestShutdownDrainsInFlight: a job already running completes normally
// during a drain with a generous deadline.
func TestShutdownDrainsInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp := mustSubmit(t, ts, smallSpec(40), "")
	id := resp.JobID
	// Give the worker a moment to pick the job up, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.job(id).Status() == StatusQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	j := waitDone(t, s, id)
	if st := j.Status(); st != StatusDone {
		t.Fatalf("in-flight job after drain: %s, want done", st)
	}
}

// TestStatsEndpoint: counters show up on /v1/stats.
func TestStatsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp := mustSubmit(t, ts, smallSpec(50), "")
	waitDone(t, s, resp.JobID)
	mustSubmit(t, ts, smallSpec(50), "") // cache hit

	var st Stats
	if err := (Client{Base: ts.URL}).Stats(&st); err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 2 || st.Completed != 1 || st.CacheHits != 1 || st.StoredResults != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestResultHashValidation: GET /v1/results/{hash} only ever touches the
// store for well-formed spec hashes. ServeMux percent-decodes the path
// value after matching, so ..%2F sequences arrive as real "../" path
// components — they must be rejected before reaching the filesystem.
func TestResultHashValidation(t *testing.T) {
	dataDir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: WorkersNone, DataDir: dataDir})

	// A .json file outside the result store that a traversal would reach:
	// with hash "a/../../../secret", ResultStore.path joins
	// results/a/ + a/../../../secret.json, which cleans to
	// dataDir/secret.json.
	secret := filepath.Join(dataDir, "secret.json")
	if err := os.WriteFile(secret, []byte(`{"leak":true}`), 0o644); err != nil {
		t.Fatal(err)
	}

	get := func(rawHash string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/results/" + rawHash)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := get("a%2F..%2F..%2F..%2Fsecret"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traversal hash: %d, want 404", resp.StatusCode)
	}
	for _, h := range []string{
		"abc",                             // too short
		strings.Repeat("A", 64),           // uppercase
		strings.Repeat("z", 64),           // not hex
		"..%2F" + strings.Repeat("a", 61), // traversal padded to 64 decoded chars
	} {
		if resp := get(h); resp.StatusCode != http.StatusNotFound {
			t.Errorf("hash %q: %d, want 404", h, resp.StatusCode)
		}
	}
	// The decoy must still be untouched and unserved.
	if b, err := os.ReadFile(secret); err != nil || string(b) != `{"leak":true}` {
		t.Fatalf("decoy file changed: %q, %v", b, err)
	}

	// ResultStore.Get itself refuses malformed hashes too.
	rs := &ResultStore{Dir: filepath.Join(dataDir, "results")}
	if _, ok := rs.Get("../secret"); ok {
		t.Fatal("ResultStore.Get served a traversal path")
	}
}

// TestFinishedJobPruning: terminal jobs beyond FinishedJobCap are
// forgotten oldest-first, so s.jobs stays bounded on a long-running
// daemon while the newest finished jobs remain addressable.
func TestFinishedJobPruning(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, FinishedJobCap: 2})
	var ids []string
	for i := int64(0); i < 3; i++ {
		resp := mustSubmit(t, ts, smallSpec(400+i), "")
		if resp.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d (%s)", i, resp.Code, resp.Error)
		}
		id := resp.JobID
		waitDone(t, s, id)
		ids = append(ids, id)
	}
	// finishJob closes Done before it prunes: wait for the table to settle.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		s.mu.Lock()
		n := len(s.jobs)
		s.mu.Unlock()
		if n <= 2 {
			break
		}
	}
	status := func(id string) int {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := status(ids[0]); code != http.StatusNotFound {
		t.Errorf("oldest finished job still addressable: %d, want 404", code)
	}
	for _, id := range ids[1:] {
		if code := status(id); code != http.StatusOK {
			t.Errorf("recent finished job %s: %d, want 200", id, code)
		}
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 2 {
		t.Fatalf("len(s.jobs) = %d, want 2", n)
	}
}
