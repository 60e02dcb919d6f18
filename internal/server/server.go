// Package server is the simulation-as-a-service daemon behind
// cmd/digs-server: an HTTP JSON API that accepts scenario.Spec
// submissions, runs them through the shared scenario.RunSpec executor on
// a bounded worker pool, streams per-job telemetry over SSE, and serves
// completed results from a content-addressed on-disk store.
//
// Admission control happens at submit time, in order: a store hit is
// answered immediately from cache (200), an identical in-flight
// submission is deduplicated onto the existing job (202), a tenant over
// its quota or a full queue is pushed back with 429 + Retry-After, and a
// draining server refuses with 503. Everything admitted is a Job that a
// worker picks up FIFO; near-identical scenarios (same deployment,
// protocol, seed and config, different measurement window or faults)
// warm-start their formation phase from the server's snapshot warm pool.
//
// The server is crash-safe: accepted jobs are recorded in a durable
// journal (journal.go) before the 202 leaves the building, workers are
// panic-isolated, a failed or panicked run dead-letters its job at once
// (the spec alone decides a run, so running it again would fail again),
// a job whose runs keep dying with the process is dead-lettered after
// maxAttempts starts, and persistent write failures flip the server into
// a degraded state that sheds new work instead of silently losing it.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/store"
	"github.com/digs-net/digs/internal/telemetry"
)

// Config parameterises a Server.
type Config struct {
	// Workers is the simulation worker pool size (default 2; tests may
	// use 0 to hold jobs in the queue).
	Workers int
	// QueueDepth bounds the admitted-but-not-running backlog
	// (default 64). A full queue pushes back with 429 + Retry-After.
	QueueDepth int
	// TenantQuota caps queued+running jobs per tenant (0 = unlimited).
	TenantQuota int
	// MaxNodes rejects scenarios over this deployment size with 413
	// (0 = 20000).
	MaxNodes int
	// DataDir is the root for the result store ("results/"), the
	// warm-start pool ("warm/") and the job journal. Empty disables all
	// three: nothing is cached and accepted jobs die with the process.
	DataDir string
	// ResultBudget bounds the content-addressed result store.
	ResultBudget store.Budget
	// WarmBudget bounds the warm-start snapshot pool.
	WarmBudget store.Budget
	// FinishedJobCap bounds how many terminal jobs are kept addressable
	// for status/stream/result replay (default 256). Oldest-finished
	// jobs beyond the cap are forgotten, so a long-running daemon's
	// memory is bounded by cap x per-job backlog rather than by every
	// job ever run.
	FinishedJobCap int
	// Name identifies this backend instance in a multi-node tier; it is
	// echoed as the X-DiGS-Backend header on every API response so a
	// gateway (or a human with curl) can tell which replica answered.
	Name string

	// runFn is the test seam for the spec executor
	// (default scenario.RunSpec).
	runFn func(context.Context, scenario.Spec, scenario.RunOpts) (*scenario.Result, scenario.RunInfo, error)
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.Workers < 0 {
		c.Workers = WorkersNone
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 20000
	}
	if c.FinishedJobCap <= 0 {
		c.FinishedJobCap = 256
	}
	if c.runFn == nil {
		c.runFn = scenario.RunSpec
	}
	return c
}

// Workers(0) in the Config zero value must mean "default", while tests
// need literal zero; WorkersNone is the sentinel for a pool with no
// workers.
const WorkersNone = -1

// maxAttempts is the crash-loop guard: a job runs once, but a run cut
// short by the process dying leaves only its start record, so a restart
// runs the job again. A job that has already started maxAttempts times
// is dead-lettered instead, so a spec that reliably kills the process
// cannot crash-loop the daemon forever.
const maxAttempts = 3

// Stats is the /v1/stats document.
type Stats struct {
	Submitted     int64 `json:"submitted"`
	CacheHits     int64 `json:"cache_hits"`
	DedupHits     int64 `json:"dedup_hits"`
	Completed     int64 `json:"completed"`
	Failed        int64 `json:"failed"`
	Canceled      int64 `json:"canceled"`
	WarmHits      int64 `json:"warm_hits"`
	RejectedQuota int64 `json:"rejected_quota"`
	RejectedQueue int64 `json:"rejected_queue"`
	// Recovered counts jobs re-enqueued from the journal at startup —
	// work the previous incarnation accepted but never finished.
	Recovered int64 `json:"recovered"`
	// JournalDroppedTail counts damaged trailing journal lines the
	// startup replay discarded (a crash mid-append leaves at most one).
	JournalDroppedTail int64  `json:"journal_dropped_tail,omitempty"`
	Queued             int    `json:"queued"`
	Running            int    `json:"running"`
	StoredResults      int    `json:"stored_results"`
	Draining           bool   `json:"draining"`
	Degraded           bool   `json:"degraded"`
	DegradedCause      string `json:"degraded_cause,omitempty"`
}

// Server is the daemon: admission control, the job queue and worker
// pool, the result store and the warm pool, the durability journal,
// plus the HTTP surface.
type Server struct {
	cfg     Config
	results *ResultStore    // nil when DataDir is empty
	warm    *snapshot.Cache // nil when DataDir is empty
	journal *journal        // nil when DataDir is empty
	quota   *quotas

	mu       sync.Mutex
	jobs     map[string]*Job // by job ID, all states
	byHash   map[string]*Job // in-flight (queued/running) by spec hash
	finished []string        // terminal job IDs, oldest first, for pruning

	jobsCh    chan *Job
	stopCh    chan struct{}
	wg        sync.WaitGroup
	runCtx    context.Context
	runCancel context.CancelFunc
	draining  atomic.Bool
	nextID    atomic.Int64
	running   atomic.Int64

	degraded      atomic.Bool
	degradedMu    sync.Mutex
	degradedCause string

	submitted, cacheHits, dedupHits atomic.Int64
	completed, failed, canceled     atomic.Int64
	warmHits, rejQuota, rejQueue    atomic.Int64
	recovered, tailDrop             atomic.Int64
}

// New builds a Server, replays its journal (re-registering finished
// jobs and re-enqueueing interrupted ones), and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		quota:  newQuotas(cfg.TenantQuota),
		jobs:   make(map[string]*Job),
		byHash: make(map[string]*Job),
		stopCh: make(chan struct{}),
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	var pending []*Job
	if cfg.DataDir != "" {
		s.results = &ResultStore{Dir: filepath.Join(cfg.DataDir, "results"), Budget: cfg.ResultBudget}
		s.warm = &snapshot.Cache{Dir: filepath.Join(cfg.DataDir, "warm"), Budget: cfg.WarmBudget}
		var err error
		pending, err = s.recover(filepath.Join(cfg.DataDir, journalFile))
		if err != nil {
			return nil, err
		}
	}
	// The channel outgrows QueueDepth by the recovered backlog so the
	// replayed jobs always fit; admission enforces QueueDepth itself.
	s.jobsCh = make(chan *Job, cfg.QueueDepth+len(pending))
	for _, j := range pending {
		s.jobsCh <- j
	}
	workers := cfg.Workers
	if workers == WorkersNone {
		workers = 0
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover replays the journal at path into the job table: terminal jobs
// come back addressable (done jobs with their verified result bytes
// from the store), and jobs the previous incarnation accepted but never
// finished come back queued with their consumed-attempt count intact.
func (s *Server) recover(path string) ([]*Job, error) {
	jl, rec, err := recoverJournal(path, s.results, s.cfg.FinishedJobCap)
	if err != nil {
		return nil, err
	}
	s.journal = jl
	s.nextID.Store(rec.maxID)
	s.tailDrop.Store(int64(rec.dropped))
	for _, rj := range rec.finished {
		j := newJob(rj.id, rj.tenant, rj.specHash, rj.spec)
		j.setAttempts(rj.attempts)
		switch rj.op {
		case opDone:
			b, _ := s.results.Get(rj.specHash) // verified during recovery
			j.markDone(b, rj.resultHash, false)
		case opFail:
			j.markFailed(rj.detail)
		case opCancel:
			j.markCanceled(rj.detail)
		}
		j.Stream.Close()
		s.jobs[j.ID] = j
		s.finished = append(s.finished, j.ID)
	}
	var pending []*Job
	for _, rj := range rec.pending {
		if s.byHash[rj.specHash] != nil {
			continue // only a tampered journal holds two in-flight twins
		}
		j := newJob(rj.id, rj.tenant, rj.specHash, rj.spec)
		j.setAttempts(rj.attempts)
		s.jobs[j.ID] = j
		s.byHash[rj.specHash] = j
		s.quota.force(rj.tenant)
		pending = append(pending, j)
	}
	s.recovered.Store(int64(len(pending)))
	return pending, nil
}

// degrade flips the server into degraded health: the journal or a store
// can no longer be written (ENOSPC, dead disk), so results and accepted
// jobs can no longer be made durable. In-flight work keeps running, but
// readyz reports 503 and new submissions are shed. The first cause wins;
// the state is sticky until restart — by then an operator has freed the
// disk, and the journal replay puts the world back together.
func (s *Server) degrade(cause string) {
	s.degradedMu.Lock()
	if !s.degraded.Load() {
		s.degradedCause = cause
	}
	s.degradedMu.Unlock()
	s.degraded.Store(true)
}

// DegradedCause returns the degraded state and its first cause.
func (s *Server) DegradedCause() (bool, string) {
	s.degradedMu.Lock()
	defer s.degradedMu.Unlock()
	return s.degraded.Load(), s.degradedCause
}

// journalAppend records a lifecycle transition, degrading the server on
// write failure rather than blocking the job's progress.
func (s *Server) journalAppend(rec journalRecord) {
	if s.journal == nil {
		return
	}
	if err := s.journal.append(rec); err != nil {
		s.degrade(fmt.Sprintf("journal append: %v", err))
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case j := <-s.jobsCh:
			// A stop racing with a ready queue must drain, not run.
			select {
			case <-s.stopCh:
				s.cancelJob(j, "server shutting down")
				continue
			default:
			}
			s.runJob(j)
		}
	}
}

// finishJob applies a terminal transition and releases the job's
// admission resources exactly once. The transition is counted and
// journaled before mark makes it observable (status, Done channel, end of
// stream): whoever sees a terminal job also sees it counted, and a crash
// right after a client saw it finds the record on disk. Terminal jobs stay
// addressable for replay until FinishedJobCap newer jobs have finished,
// then they are forgotten so s.jobs (and the result/backlog bytes each
// Job pins) cannot grow without bound.
func (s *Server) finishJob(j *Job, rec journalRecord, mark func()) {
	switch rec.Op {
	case opDone:
		s.completed.Add(1)
	case opFail:
		s.failed.Add(1)
	case opCancel:
		s.canceled.Add(1)
	}
	rec.Job = j.ID
	s.journalAppend(rec)
	mark()
	j.Stream.Close()
	s.quota.release(j.Tenant)
	s.mu.Lock()
	if s.byHash[j.SpecHash] == j {
		delete(s.byHash, j.SpecHash)
	}
	s.finished = append(s.finished, j.ID)
	for len(s.finished) > s.cfg.FinishedJobCap {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
}

func (s *Server) cancelJob(j *Job, msg string) {
	s.finishJob(j, journalRecord{Op: opCancel, Detail: msg}, func() { j.markCanceled(msg) })
}

// failJob dead-letters the job: failed, visible on the API, never run
// again. A poisoned spec costs its own run, never the daemon.
func (s *Server) failJob(j *Job, attempt int, msg string) {
	s.finishJob(j, journalRecord{Op: opFail, Attempt: attempt, Detail: msg}, func() { j.markFailed(msg) })
}

// execute runs one attempt of the job's spec under a recover() barrier:
// a panic anywhere in the simulator surfaces as an ordinary error (with
// the stack preserved on the job's telemetry stream for post-mortems)
// instead of taking down the daemon and every other job with it.
func (s *Server) execute(j *Job) (res *scenario.Result, rinfo scenario.RunInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack, _ := json.Marshal(string(debug.Stack()))
			j.Stream.Note(fmt.Sprintf(
				`{"schema":"digs-server/v1","event":"worker_panic","detail":%q,"stack":%s}`, fmt.Sprint(r), stack))
			res, rinfo, err = nil, scenario.RunInfo{}, fmt.Errorf("worker panic: %v", r)
		}
	}()
	j.markRunning()
	j.Stream.Note(string(telemetry.HeaderLine()))
	return s.cfg.runFn(s.runCtx, j.Spec, scenario.RunOpts{
		Tracer: j.Stream,
		Warm:   s.warm,
	})
}

func (s *Server) runJob(j *Job) {
	// Only a job replayed from the journal arrives with starts spent.
	if n := j.Attempts(); n >= maxAttempts {
		s.failJob(j, n, fmt.Sprintf(
			"dead-lettered: started %d times without finishing (crash-loop guard, budget %d)", n, maxAttempts))
		return
	}
	attempt := j.beginAttempt()
	s.journalAppend(journalRecord{Op: opStart, Job: j.ID, Attempt: attempt})
	s.running.Add(1)
	res, rinfo, err := s.execute(j)
	s.running.Add(-1)
	if err != nil {
		if errors.Is(err, context.Canceled) || s.runCtx.Err() != nil {
			s.cancelJob(j, "canceled by shutdown deadline")
			return
		}
		s.failJob(j, attempt, err.Error())
		return
	}
	if rinfo.WarmHit {
		s.warmHits.Add(1)
	}
	enc, err := res.Encode()
	if err != nil {
		s.failJob(j, attempt, fmt.Sprintf("encoding result: %v", err))
		return
	}
	rhash, err := res.HashResult()
	if err != nil {
		s.failJob(j, attempt, fmt.Sprintf("hashing result: %v", err))
		return
	}
	if s.results != nil {
		if err := s.results.Put(j.SpecHash, enc); err != nil {
			// The run itself succeeded and its bytes are in memory, so
			// the job still finishes — but the store is no longer
			// accepting writes, which is a durability failure, not a
			// cache miss: degrade so the health surface says so.
			s.degrade(fmt.Sprintf("result store put: %v", err))
			j.Stream.Note(fmt.Sprintf(
				`{"schema":"digs-server/v1","event":"store_error","detail":%q}`, err.Error()))
		}
	}
	s.finishJob(j, journalRecord{Op: opDone, ResultHash: rhash}, func() { j.markDone(enc, rhash, rinfo.WarmHit) })
}

// Shutdown drains the server: no new submissions, in-flight jobs run to
// completion, queued jobs are canceled. If ctx expires before the
// workers finish, the run context is canceled so in-flight simulations
// abort at their next chunk boundary.
func (s *Server) Shutdown(ctx context.Context) error {
	// Flipping draining under s.mu closes the submit/shutdown race:
	// handleSubmit re-checks the flag inside the critical section that
	// registers and enqueues a job, so once this Lock/Unlock pair has
	// run, every admitted job is already in jobsCh and the drain loop
	// below provably sees it.
	s.mu.Lock()
	if !s.draining.CompareAndSwap(false, true) {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.mu.Unlock()
	close(s.stopCh)

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.runCancel()
		<-done
		err = ctx.Err()
	}
	s.runCancel()

	// Cancel whatever the workers never picked up (including everything,
	// when the pool is empty).
	for {
		select {
		case j := <-s.jobsCh:
			s.cancelJob(j, "server shutting down")
		default:
			if s.journal != nil {
				s.journal.close()
			}
			return err
		}
	}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scenarios", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/results/{hash}", s.handleResult)
	mux.HandleFunc("PUT /v1/results/{hash}", s.handleResultPut)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	// healthz is pure liveness: the process is up and serving HTTP.
	// A draining or degraded server is still alive — restarting it
	// would interrupt in-flight work, which is exactly wrong.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	// readyz is readiness: should a balancer route new work here?
	// 503 while draining (going away) or degraded (can't make accepted
	// work durable); the gateway probes this for routing decisions.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		if degraded, cause := s.DegradedCause(); degraded {
			http.Error(w, "degraded: "+cause, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})
	return s.tag(mux)
}

// Tracing headers shared by the gateway and the backends: which replica
// answered, which request this was, which job it concerned.
const (
	// HeaderBackend names the backend instance that produced a response.
	HeaderBackend = "X-DiGS-Backend"
	// HeaderRequest is the caller-assigned request ID, echoed back so one
	// request can be matched across gateway and backend logs.
	HeaderRequest = "X-DiGS-Request"
	// HeaderJob carries the job ID a response concerns, on submit as well
	// as on every job read, so a trace can follow submit → status → SSE.
	HeaderJob = "X-DiGS-Job"
)

// tag wraps the API with the tracing headers: the backend's name and an
// echo of the caller's request ID ride on every response.
func (s *Server) tag(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Name != "" {
			w.Header().Set(HeaderBackend, s.cfg.Name)
		}
		if rid := r.Header.Get(HeaderRequest); rid != "" {
			w.Header().Set(HeaderRequest, rid)
		}
		next.ServeHTTP(w, r)
	})
}

// WriteJSON answers with v as JSON: HTML characters unescaped, one
// trailing newline.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// WriteError answers with the API's error document, {"error": msg}.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, apiError{msg})
}

// DecodeSpec reads the submitted spec, strictly: at most 1 MiB, no
// unknown fields, valid. It answers a spec that is none of these with a
// 400 and returns ok false; else it returns the spec and its hash.
func DecodeSpec(w http.ResponseWriter, r *http.Request) (spec scenario.Spec, hash string, ok bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding spec: %v", err))
		return spec, "", false
	}
	err := spec.Validate()
	if err == nil {
		hash, err = spec.Hash()
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return spec, "", false
	}
	return spec, hash, true
}

// tenant identifies the caller for quota accounting.
func tenant(r *http.Request) string {
	if t := r.Header.Get("X-DiGS-Tenant"); t != "" {
		return t
	}
	return "default"
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if degraded, cause := s.DegradedCause(); degraded {
		// Accepting work whose acceptance cannot be made durable would
		// silently break the crash-safety contract, so a degraded
		// server sheds new submissions up front (reads and in-flight
		// jobs are unaffected; readyz tells the balancer to stop
		// routing here).
		SetRetryAfter(w)
		WriteError(w, http.StatusServiceUnavailable, "server is degraded: "+cause)
		return
	}
	spec, hash, ok := DecodeSpec(w, r)
	if !ok {
		return
	}
	if n := spec.GenNodes(); n > s.cfg.MaxNodes {
		WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%d nodes exceeds this server's limit of %d", n, s.cfg.MaxNodes))
		return
	}
	s.submitted.Add(1)

	// Content-addressed fast path: an identical scenario already ran.
	if s.results != nil {
		if b, ok := s.results.Get(hash); ok {
			s.cacheHits.Add(1)
			WriteJSON(w, http.StatusOK, SubmitResponse{SpecHash: hash, Cached: true, Result: b})
			return
		}
	}

	ten := tenant(r)

	// Draining re-check, dedup check, job registration and enqueue are
	// one critical section: two identical concurrent submissions must
	// race to exactly one job, and a submission racing Shutdown must
	// either land in jobsCh before Shutdown flips draining (so its
	// drain loop cancels the job) or observe the flag and refuse —
	// never enqueue after the final drain has run.
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if existing, ok := s.byHash[hash]; ok {
		s.mu.Unlock()
		s.dedupHits.Add(1)
		w.Header().Set(HeaderJob, existing.ID)
		WriteJSON(w, http.StatusAccepted, SubmitResponse{
			JobID: existing.ID, SpecHash: hash, Status: existing.Status(), Dedup: true,
		})
		return
	}
	if !s.quota.acquire(ten) {
		s.mu.Unlock()
		s.rejQuota.Add(1)
		SetRetryAfter(w)
		WriteError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q is at its quota of %d in-flight jobs", ten, s.cfg.TenantQuota))
		return
	}
	// Admission enforces QueueDepth itself (the channel can be larger
	// after a recovery); every sender holds s.mu, so the length check
	// and the send below are one atomic step and the send cannot block.
	if len(s.jobsCh) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.quota.release(ten)
		s.rejQueue.Add(1)
		SetRetryAfter(w)
		WriteError(w, http.StatusTooManyRequests,
			fmt.Sprintf("queue full (%d jobs)", s.cfg.QueueDepth))
		return
	}
	id := fmt.Sprintf("j-%06d", s.nextID.Add(1))
	j := newJob(id, ten, hash, spec)
	// Durability before acknowledgement: the submit record (with the
	// full spec) is fsync'd before the 202 leaves, so every job a
	// client believes accepted survives SIGKILL and is recovered on
	// restart. A journal that cannot take the record refuses the job
	// and degrades the server.
	if s.journal != nil {
		if err := s.journal.append(journalRecord{
			Op: opSubmit, Job: id, Tenant: ten, SpecHash: hash, Spec: &spec,
		}); err != nil {
			s.mu.Unlock()
			s.quota.release(ten)
			s.degrade(fmt.Sprintf("journal append: %v", err))
			SetRetryAfter(w)
			WriteError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("cannot durably accept jobs: %v", err))
			return
		}
	}
	s.jobs[id] = j
	s.byHash[hash] = j
	s.jobsCh <- j
	s.mu.Unlock()
	w.Header().Set(HeaderJob, id)
	WriteJSON(w, http.StatusAccepted, SubmitResponse{JobID: id, SpecHash: hash, Status: StatusQueued})
}

func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set(HeaderJob, j.ID)
	WriteJSON(w, http.StatusOK, j.View(false))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set(HeaderJob, j.ID)
	switch j.Status() {
	case StatusDone:
		b, rhash := j.Result()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-DiGS-Result-Hash", rhash)
		w.Write(b)
		w.Write([]byte("\n"))
	case StatusFailed, StatusCanceled:
		WriteJSON(w, http.StatusGone, j.View(false))
	default:
		SetRetryAfter(w)
		WriteJSON(w, http.StatusAccepted, j.View(false))
	}
}

// isSpecHash reports whether s is a well-formed spec hash: exactly 64
// lowercase hex characters. ServeMux percent-decodes path values after
// matching, so without this check a {hash} like "..%2F..%2Fetc%2Fx"
// would reach ResultStore.path as "../../etc/x" and escape the store.
func isSpecHash(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if s.results == nil {
		WriteError(w, http.StatusNotFound, "result store disabled")
		return
	}
	hash := r.PathValue("hash")
	if !isSpecHash(hash) {
		WriteError(w, http.StatusNotFound, "no stored result for that spec hash")
		return
	}
	b, ok := s.results.Get(hash)
	if !ok {
		WriteError(w, http.StatusNotFound, "no stored result for that spec hash")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
	w.Write([]byte("\n"))
}

// handleResultPut installs a canonical result under a spec hash — the
// gateway's read-repair path, re-replicating a result it found on only
// one replica. The body must re-encode canonically (so a truncated or
// hand-mangled upload is refused), its embedded spec_hash must match
// the path (a result valid for spec A cannot be filed under spec B and
// later served as a verified cache hit for B), and an entry already on
// disk is never overwritten with different bytes — read-repair fills
// missing replicas, it does not replace existing ones. The store wraps
// accepted bytes in the usual verification envelope; a degraded store
// refuses with 503 like any other durability failure.
func (s *Server) handleResultPut(w http.ResponseWriter, r *http.Request) {
	if s.results == nil {
		WriteError(w, http.StatusNotFound, "result store disabled")
		return
	}
	hash := r.PathValue("hash")
	if !isSpecHash(hash) {
		WriteError(w, http.StatusBadRequest, "malformed spec hash")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("reading result: %v", err))
		return
	}
	body = bytes.TrimSpace(body)
	var res scenario.Result
	if err := json.Unmarshal(body, &res); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding result: %v", err))
		return
	}
	canonical, err := res.Encode()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !bytes.Equal(canonical, body) {
		WriteError(w, http.StatusBadRequest, "result is not in canonical encoding")
		return
	}
	if res.SpecHash != hash {
		WriteError(w, http.StatusBadRequest, "result's embedded spec_hash does not match the requested hash")
		return
	}
	if existing, ok := s.results.Get(hash); ok {
		if !bytes.Equal(existing, canonical) {
			WriteError(w, http.StatusConflict, "a different result is already stored under that spec hash")
			return
		}
		w.WriteHeader(http.StatusNoContent) // idempotent repair: already stored
		return
	}
	if err := s.results.Put(hash, canonical); err != nil {
		s.degrade(fmt.Sprintf("result store put: %v", err))
		WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStream serves the job's telemetry as Server-Sent Events: each
// JSONL line is one "data:" event, replayed from the start of the
// retained window and then followed live; a final "done" event carries
// the job's terminal view. Whenever the subscriber's cursor has fallen
// out of the retention window — at attach or mid-stream on a slow
// client — a "dropped" event reports how many lines the gap swallowed.
// Each retained entry is decoded from its packed form and rendered to its
// line as it is sent, into one buffer the subscriber reuses. Events are
// written as they come and flushed only when the subscriber has caught up,
// just before it waits for more, and at done: a subscriber never holds a
// line while it waits, and a long backlog goes out in full buffers rather
// than one flush per batch.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := OpenStream(w, j.ID)
	if !ok {
		return
	}
	var bt telemetry.Batch
	var line []byte
	from := 0
	for {
		skipped, closed, wait := j.Stream.Next(&bt, from)
		if skipped > 0 {
			if WriteEvent(w, "dropped", strconv.Itoa(skipped)) != nil {
				return
			}
		}
		for i := range bt.Len() {
			line = bt.AppendLine(line[:0], i)
			if WriteEvent(w, "message", line) != nil {
				return
			}
		}
		from = bt.End()
		if closed {
			view, _ := json.Marshal(j.View(true))
			WriteEvent(w, "done", view)
			fl.Flush()
			return
		}
		if skipped > 0 || bt.Len() > 0 {
			continue // more may have come while these were written
		}
		fl.Flush()
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	degraded, cause := s.DegradedCause()
	st := Stats{
		Submitted:          s.submitted.Load(),
		CacheHits:          s.cacheHits.Load(),
		DedupHits:          s.dedupHits.Load(),
		Completed:          s.completed.Load(),
		Failed:             s.failed.Load(),
		Canceled:           s.canceled.Load(),
		WarmHits:           s.warmHits.Load(),
		RejectedQuota:      s.rejQuota.Load(),
		RejectedQueue:      s.rejQueue.Load(),
		Recovered:          s.recovered.Load(),
		JournalDroppedTail: s.tailDrop.Load(),
		Queued:             len(s.jobsCh),
		Running:            int(s.running.Load()),
		Draining:           s.draining.Load(),
		Degraded:           degraded,
		DegradedCause:      cause,
	}
	if s.results != nil {
		st.StoredResults = s.results.Len()
	}
	WriteJSON(w, http.StatusOK, st)
}
