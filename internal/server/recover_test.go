package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/telemetry"
)

// abandonedServer builds a server the test will never Shutdown — the
// in-process stand-in for a process that was SIGKILLed. Its HTTP
// listener is closed, but its journal file handle and job table are
// simply dropped on the floor, exactly like a dead process's.
func abandonedServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), journalFile)
	jl, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(1)
	want := []journalRecord{
		{Op: opSubmit, Job: "j-000001", Tenant: "acme", SpecHash: strings.Repeat("ab", 32), Spec: &spec},
		{Op: opStart, Job: "j-000001", Attempt: 1},
		{Op: opRetry, Job: "j-000001", Attempt: 1, Detail: "boom"},
		{Op: opStart, Job: "j-000001", Attempt: 2},
		{Op: opDone, Job: "j-000001", ResultHash: strings.Repeat("cd", 32)},
	}
	for _, rec := range want {
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, dropped := replayJournal(f)
	if dropped != 0 {
		t.Fatalf("clean journal dropped %d lines", dropped)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, rec := range got {
		if rec.Schema != journalSchema || rec.Seq != int64(i+1) {
			t.Fatalf("record %d: schema %q seq %d", i, rec.Schema, rec.Seq)
		}
		if rec.Op != want[i].Op || rec.Job != want[i].Job || rec.Attempt != want[i].Attempt {
			t.Fatalf("record %d: got %+v want %+v", i, rec, want[i])
		}
	}
	if got[0].Spec == nil || got[0].Spec.Seed != spec.Seed {
		t.Fatalf("submit record lost its spec: %+v", got[0].Spec)
	}
}

func TestJournalReplayTruncatedTail(t *testing.T) {
	spec := smallSpec(2)
	var buf bytes.Buffer
	for i, rec := range []journalRecord{
		{Op: opSubmit, Job: "j-000001", SpecHash: strings.Repeat("ab", 32), Spec: &spec},
		{Op: opStart, Job: "j-000001", Attempt: 1},
	} {
		rec.Schema = journalSchema
		rec.Seq = int64(i + 1)
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	intact := buf.Len()

	cases := []struct {
		name string
		tail string
		drop int
	}{
		{"half-written json", `{"schema":"digs-journal/v1","seq":3,"op":"do`, 1},
		{"binary garbage", "\x00\xff\xfe garbage\n", 1},
		{"wrong schema", `{"schema":"other/v9","seq":3,"op":"done","job":"j-000001"}` + "\n", 1},
		{"garbage then more lines", "not json\n{\"also\":\"dropped\"}\nmore\n", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			damaged := append(append([]byte(nil), buf.Bytes()[:intact]...), tc.tail...)
			recs, dropped := replayJournal(bytes.NewReader(damaged))
			if len(recs) != 2 {
				t.Fatalf("trusted prefix: got %d records, want 2", len(recs))
			}
			if dropped != tc.drop {
				t.Fatalf("dropped %d lines, want %d", dropped, tc.drop)
			}
			if recs[0].Op != opSubmit || recs[1].Op != opStart {
				t.Fatalf("prefix corrupted: %+v", recs)
			}
		})
	}
}

func FuzzJournalReplay(f *testing.F) {
	spec := smallSpec(3)
	b, _ := json.Marshal(journalRecord{
		Schema: journalSchema, Seq: 1, Op: opSubmit, Job: "j-000001",
		SpecHash: strings.Repeat("ab", 32), Spec: &spec,
	})
	f.Add(append(b, '\n'))
	f.Add([]byte(""))
	f.Add([]byte("{}\n"))
	f.Add([]byte("\x00\x01\x02"))
	f.Add(append(append([]byte(nil), append(b, '\n')...), []byte("garbage tail")...))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, dropped := replayJournal(bytes.NewReader(data))
		if dropped < 0 {
			t.Fatalf("negative dropped count %d", dropped)
		}
		for i, rec := range recs {
			if rec.Schema != journalSchema || rec.Op == "" || rec.Job == "" {
				t.Fatalf("record %d escaped validation: %+v", i, rec)
			}
		}
		// Folding arbitrary surviving records must never panic and must
		// keep per-job state terminal-once.
		for _, rj := range foldJournal(recs) {
			if rj.id == "" {
				t.Fatalf("folded job without an ID")
			}
		}
		// A valid record prepended to the fuzz input is always trusted.
		withPrefix := append(append([]byte(nil), append(b, '\n')...), data...)
		prefixed, _ := replayJournal(bytes.NewReader(withPrefix))
		if len(prefixed) == 0 || prefixed[0].Op != opSubmit || prefixed[0].Job != "j-000001" {
			t.Fatalf("valid first record not recovered (got %d records)", len(prefixed))
		}
	})
}

// TestRecoverPendingRerun is the heart of the crash-safety contract:
// jobs accepted but never run (the worker pool is empty, standing in
// for a crash) come back on restart, run to completion, and produce
// bytes bit-identical to an uninterrupted run of the same spec.
func TestRecoverPendingRerun(t *testing.T) {
	dataDir := t.TempDir()
	_, ts1 := abandonedServer(t, Config{Workers: WorkersNone, DataDir: dataDir})
	specs := []scenario.Spec{smallSpec(101), smallSpec(102)}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		resp := mustSubmit(t, ts1, spec, "acme")
		if resp.Code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.Code)
		}
		ids[i] = resp.JobID
	}
	ts1.Close() // the "crash": no Shutdown, no journal close, jobs queued

	s2, _ := newTestServer(t, Config{Workers: 2, DataDir: dataDir})
	for i, id := range ids {
		j := waitDone(t, s2, id)
		if got := j.Status(); got != StatusDone {
			t.Fatalf("recovered job %s: status %s (%s)", id, got, j.View(false).Error)
		}
		gotBytes, gotHash := j.Result()

		direct, _, err := scenario.RunSpec(context.Background(), specs[i], scenario.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, want) {
			t.Fatalf("recovered job %s result differs from uninterrupted run", id)
		}
		if gotHash != hashBytes(want) {
			t.Fatalf("recovered job %s hash %s, want %s", id, gotHash, hashBytes(want))
		}
		if s2.quota.inUse("acme") != 0 {
			t.Fatalf("recovered tenant quota not released: %d in use", s2.quota.inUse("acme"))
		}
	}
	if got := s2.recovered.Load(); got != int64(len(ids)) {
		t.Fatalf("recovered stat %d, want %d", got, len(ids))
	}
	// New submissions must not collide with recovered IDs.
	_, ts2port := newTestServerHTTP(t, s2)
	resp := mustSubmit(t, ts2port, smallSpec(103), "")
	if resp.Code != http.StatusAccepted {
		t.Fatalf("post-recovery submit: HTTP %d", resp.Code)
	}
	if id := resp.JobID; id == ids[0] || id == ids[1] {
		t.Fatalf("job ID %s reused after recovery", id)
	}
}

// newTestServerHTTP wraps an existing server in an httptest listener.
func newTestServerHTTP(t *testing.T, s *Server) (*Server, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestRecoverDoneJobs: terminal jobs come back addressable with their
// verified result bytes, not re-enqueued.
func TestRecoverDoneJobs(t *testing.T) {
	dataDir := t.TempDir()
	s1, ts1 := abandonedServer(t, Config{Workers: 2, DataDir: dataDir})
	spec := smallSpec(111)
	resp := mustSubmit(t, ts1, spec, "")
	if resp.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.Code)
	}
	id := resp.JobID
	j1 := waitDone(t, s1, id)
	wantBytes, wantHash := j1.Result()
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{Workers: 2, DataDir: dataDir})
	j2 := s2.job(id)
	if j2 == nil {
		t.Fatalf("done job %s forgotten across restart", id)
	}
	if j2.Status() != StatusDone {
		t.Fatalf("recovered done job has status %s", j2.Status())
	}
	gotBytes, gotHash := j2.Result()
	if !bytes.Equal(gotBytes, wantBytes) || gotHash != wantHash {
		t.Fatalf("recovered done job result changed across restart")
	}
	if got := s2.recovered.Load(); got != 0 {
		t.Fatalf("done job counted as recovered-pending: %d", got)
	}
	// And the content-addressed fast path still fires for its spec.
	resp = mustSubmit(t, ts2, spec, "")
	if resp.Code != http.StatusOK {
		t.Fatalf("resubmit after restart: HTTP %d (%s)", resp.Code, resp.Error)
	}
}

// TestRecoverTruncatedTail: a half-written final record (torn by the
// crash) is dropped and counted; everything before it is recovered.
func TestRecoverTruncatedTail(t *testing.T) {
	dataDir := t.TempDir()
	_, ts1 := abandonedServer(t, Config{Workers: WorkersNone, DataDir: dataDir})
	resp := mustSubmit(t, ts1, smallSpec(121), "")
	if resp.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.Code)
	}
	id := resp.JobID
	ts1.Close()

	jp := filepath.Join(dataDir, journalFile)
	f, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":"digs-journal/v1","seq":99,"op":"do`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, _ := newTestServer(t, Config{Workers: 2, DataDir: dataDir})
	if got := s2.tailDrop.Load(); got != 1 {
		t.Fatalf("dropped-tail stat %d, want 1", got)
	}
	j := waitDone(t, s2, id)
	if j.Status() != StatusDone {
		t.Fatalf("job before the torn tail: status %s", j.Status())
	}
}

// writeJournal writes recs as the journal under dataDir, the way a
// previous incarnation that died before any terminal record left it.
func writeJournal(t *testing.T, dataDir string, recs ...journalRecord) {
	t.Helper()
	jl, err := openJournal(filepath.Join(dataDir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}
}

// submitRecord is the journal's submit record for spec as job id.
func submitRecord(t *testing.T, id string, spec scenario.Spec) journalRecord {
	t.Helper()
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return journalRecord{Op: opSubmit, Job: id, Tenant: "default", SpecHash: hash, Spec: &spec}
}

// TestCrashLoopDeadLetters: a job whose runs died with the process
// maxAttempts times is dead-lettered on restart instead of run again,
// and the fail record keeps it failed across the next restart.
func TestCrashLoopDeadLetters(t *testing.T) {
	dataDir := t.TempDir()
	const id = "j-000001"
	recs := []journalRecord{submitRecord(t, id, smallSpec(151))}
	for n := 1; n <= maxAttempts; n++ {
		recs = append(recs, journalRecord{Op: opStart, Job: id, Attempt: n})
	}
	writeJournal(t, dataDir, recs...)

	var calls atomic.Int64
	runFn := func(ctx context.Context, spec scenario.Spec, opts scenario.RunOpts) (*scenario.Result, scenario.RunInfo, error) {
		calls.Add(1)
		return scenario.RunSpec(ctx, spec, opts)
	}
	s, _ := abandonedServer(t, Config{Workers: 1, DataDir: dataDir, runFn: runFn})
	j := waitDone(t, s, id)
	if got := j.Status(); got != StatusFailed {
		t.Fatalf("crash-looped job: status %s, want failed", got)
	}
	if v := j.View(false); !strings.Contains(v.Error, "crash-loop") || v.Attempts != maxAttempts {
		t.Fatalf("crash-looped job view: %+v", v)
	}
	if got := s.failed.Load(); got != 1 {
		t.Fatalf("failed stat %d, want 1", got)
	}

	s2, _ := newTestServer(t, Config{Workers: 1, DataDir: dataDir, runFn: runFn})
	if j := s2.job(id); j == nil || j.Status() != StatusFailed {
		t.Fatalf("crash-looped job not failed after a second restart")
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("crash-looped spec ran %d times, want 0", got)
	}
}

// TestRecoverJournalWithRetryRecords: a journal holding a retry record
// (attempt 1 failed and was retried, attempt 2 was cut short by the
// crash) still recovers: the job comes back queued with both attempts
// counted and runs to the bytes of an uninterrupted run.
func TestRecoverJournalWithRetryRecords(t *testing.T) {
	dataDir := t.TempDir()
	const id = "j-000001"
	spec := smallSpec(161)
	writeJournal(t, dataDir,
		submitRecord(t, id, spec),
		journalRecord{Op: opStart, Job: id, Attempt: 1},
		journalRecord{Op: opRetry, Job: id, Attempt: 1, Detail: "boom"},
		journalRecord{Op: opStart, Job: id, Attempt: 2},
	)

	s1, _ := abandonedServer(t, Config{Workers: WorkersNone, DataDir: dataDir})
	j1 := s1.job(id)
	if j1 == nil {
		t.Fatalf("job %s not recovered", id)
	}
	if j1.Status() != StatusQueued || j1.Attempts() != 2 {
		t.Fatalf("recovered job: status %s, attempts %d; want queued, 2", j1.Status(), j1.Attempts())
	}

	s2, _ := newTestServer(t, Config{Workers: 1, DataDir: dataDir})
	j2 := waitDone(t, s2, id)
	if got := j2.Status(); got != StatusDone {
		t.Fatalf("recovered job: status %s (%s)", got, j2.View(false).Error)
	}
	direct, _, err := scenario.RunSpec(context.Background(), spec, scenario.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := j2.Result(); !bytes.Equal(got, want) {
		t.Fatal("recovered job result differs from uninterrupted run")
	}
}

// failSeed is the poisoned-spec marker the runFn test seams key on.
const failSeed = 666

func seededRunFn(failures *atomic.Int64, failFor int64, mode string) func(context.Context, scenario.Spec, scenario.RunOpts) (*scenario.Result, scenario.RunInfo, error) {
	return func(ctx context.Context, spec scenario.Spec, opts scenario.RunOpts) (*scenario.Result, scenario.RunInfo, error) {
		if spec.Seed == failFor {
			failures.Add(1)
			if mode == "panic" {
				panic(fmt.Sprintf("poisoned spec seed=%d", spec.Seed))
			}
			return nil, scenario.RunInfo{}, fmt.Errorf("injected failure #%d", failures.Load())
		}
		return scenario.RunSpec(ctx, spec, opts)
	}
}

// TestFailedJobDeadLetters: a spec whose run fails is dead-lettered as
// failed at once, never run again — and the pool survives to run other
// work.
func TestFailedJobDeadLetters(t *testing.T) {
	var failures atomic.Int64
	s, ts := newTestServer(t, Config{
		Workers: 1,
		runFn:   seededRunFn(&failures, failSeed, "error"),
	})
	resp := mustSubmit(t, ts, smallSpec(failSeed), "")
	if resp.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.Code)
	}
	poisoned := waitDone(t, s, resp.JobID)
	if poisoned.Status() != StatusFailed {
		t.Fatalf("poisoned job status %s, want failed", poisoned.Status())
	}
	if got := failures.Load(); got != 1 {
		t.Fatalf("poisoned spec ran %d times, want exactly once", got)
	}
	if v := poisoned.View(false); !strings.Contains(v.Error, "injected failure") || v.Attempts != 1 {
		t.Fatalf("dead-letter view: %+v", v)
	}
	if got := s.failed.Load(); got != 1 {
		t.Fatalf("failed stat %d, want 1", got)
	}

	// The server is alive and healthy for everyone else.
	resp = mustSubmit(t, ts, smallSpec(132), "")
	if resp.Code != http.StatusAccepted {
		t.Fatalf("submit after dead-letter: HTTP %d", resp.Code)
	}
	if j := waitDone(t, s, resp.JobID); j.Status() != StatusDone {
		t.Fatalf("healthy job after dead-letter: %s", j.Status())
	}
}

// TestPanicIsolation: a panicking spec is indistinguishable from a
// failing one — dead-lettered with the panic message, stack preserved
// on its stream, daemon and neighbors unharmed.
func TestPanicIsolation(t *testing.T) {
	var failures atomic.Int64
	s, ts := newTestServer(t, Config{
		Workers: 2,
		runFn:   seededRunFn(&failures, failSeed, "panic"),
	})
	resp := mustSubmit(t, ts, smallSpec(failSeed), "")
	if resp.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.Code)
	}
	id := resp.JobID
	j := waitDone(t, s, id)
	if j.Status() != StatusFailed {
		t.Fatalf("panicking job status %s, want failed", j.Status())
	}
	if v := j.View(false); !strings.Contains(v.Error, "worker panic") {
		t.Fatalf("dead-letter error %q does not name the panic", v.Error)
	}
	stream, err := Client{Base: ts.URL}.Follow(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sawStack bool
	for _, ln := range stream.Lines {
		if strings.Contains(ln, "worker_panic") && strings.Contains(ln, "stack") {
			sawStack = true
		}
	}
	if !sawStack {
		t.Fatalf("panic stack missing from the job's telemetry stream (%d lines)", len(stream.Lines))
	}
	// The one run opens with the schema header; its panic line follows.
	if len(stream.Lines) != 2 || stream.Lines[0] != string(telemetry.HeaderLine()) ||
		!strings.Contains(stream.Lines[1], "worker_panic") {
		t.Fatalf("stream of a panicking run: %q", stream.Lines)
	}
	if got := failures.Load(); got != 1 {
		t.Fatalf("panicking spec ran %d times, want exactly once", got)
	}

	resp = mustSubmit(t, ts, smallSpec(133), "")
	if resp.Code != http.StatusAccepted {
		t.Fatalf("submit after panic: HTTP %d", resp.Code)
	}
	if jj := waitDone(t, s, resp.JobID); jj.Status() != StatusDone {
		t.Fatalf("healthy job after panic: %s", jj.Status())
	}
}

// TestDegradedMode: when the result store can no longer be written the
// server finishes in-flight work but flips degraded — readyz 503 (while
// healthz stays 200: the process is alive, just not routable), new
// submissions shed with 503 + Retry-After, stats say why.
func TestDegradedMode(t *testing.T) {
	dataDir := t.TempDir()
	// A regular file where the results directory must go makes every
	// store write fail with ENOTDIR — the portable stand-in for ENOSPC.
	if err := os.WriteFile(filepath.Join(dataDir, "results"), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: dataDir})

	resp := mustSubmit(t, ts, smallSpec(141), "")
	if resp.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.Code)
	}
	j := waitDone(t, s, resp.JobID)
	if j.Status() != StatusDone {
		t.Fatalf("in-flight job during degradation: %s (%s)", j.Status(), j.View(false).Error)
	}

	degraded, cause := s.DegradedCause()
	if !degraded || !strings.Contains(cause, "result store put") {
		t.Fatalf("degraded=%v cause=%q after store write failure", degraded, cause)
	}

	cl := Client{Base: ts.URL}
	if code, _, _, err := cl.Get("/readyz"); err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("degraded readyz: HTTP %d (%v), want 503", code, err)
	}
	if code, _, _, err := cl.Get("/healthz"); err != nil || code != http.StatusOK {
		t.Fatalf("degraded healthz: HTTP %d (%v), want 200 (liveness is not readiness)", code, err)
	}

	resp = mustSubmit(t, ts, smallSpec(142), "")
	if resp.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded submit: HTTP %d (%s), want 503", resp.Code, resp.Error)
	}
	if !strings.Contains(resp.Error, "degraded") {
		t.Fatalf("degraded submit error %q", resp.Error)
	}

	var st Stats
	if err := cl.Stats(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Degraded || st.DegradedCause == "" {
		t.Fatalf("stats hide the degradation: %+v", st)
	}
}

// TestDegradedStickyFirstCause: the first cause wins and the state
// survives later, different failures.
func TestDegradedStickyFirstCause(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: WorkersNone})
	s.degrade("first cause")
	s.degrade("second cause")
	degraded, cause := s.DegradedCause()
	if !degraded || cause != "first cause" {
		t.Fatalf("degraded=%v cause=%q, want sticky first cause", degraded, cause)
	}
}
