// Package gateway is the fault-tolerant front tier over a fleet of
// digs-server backends: one HTTP surface that routes scenario
// submissions by rendezvous hashing on the canonical spec hash (the
// content address is the routing key) with R-way replica placement,
// probes every backend's /readyz, trips per-backend circuit breakers,
// fails submissions and reads over to surviving replicas, hedges slow
// reads after an adaptive latency budget, and read-repairs results that
// survive on only one replica. A client sees one durable service; the
// loss of a whole backend costs at most a failover, never an error.
package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/digs-net/digs/internal/server"
)

// Config parameterises a Gateway.
type Config struct {
	// Backends are the digs-server base URLs (e.g. http://10.0.0.1:8080).
	// Their order does not matter: placement is by rendezvous hash.
	Backends []string
	// Replicas is the R in R-way placement: how many backends each spec
	// is assigned to (default 2, clamped to len(Backends)).
	Replicas int
	// ProbeInterval is how often each backend's /readyz is polled
	// (default 500ms); ProbeTimeout bounds one probe (default 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// BreakerFailures trips a backend's breaker after that many
	// consecutive errors (default 3), as does a windowed failure rate
	// (breakerWindow, breakerRate); BreakerOpenFor is the open-state
	// cooldown before the half-open trial (default 2s).
	BreakerFailures int
	BreakerOpenFor  time.Duration
	// SubmitRetries bounds the total backend POST attempts one client
	// submission may consume across failover and 429/503 backoff rounds
	// (default 12).
	SubmitRetries int
	// RequestTimeout bounds one backend API call (default 10s). SSE
	// streams are exempt: they live on the client's context instead.
	RequestTimeout time.Duration
}

// jobCap bounds the gateway's job-record table; oldest records are
// forgotten first.
const jobCap = 4096

// retryBase and retryCap bound the randomised backoff between submission
// retry rounds; Retry-After hints from backends are respected within
// [retryBase, retryCap].
const (
	retryBase = 100 * time.Millisecond
	retryCap  = 2 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Replicas > len(c.Backends) {
		c.Replicas = len(c.Backends)
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.BreakerOpenFor <= 0 {
		c.BreakerOpenFor = 2 * time.Second
	}
	if c.SubmitRetries <= 0 {
		c.SubmitRetries = 12
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	return c
}

// backend is one digs-server behind the gateway.
type backend struct {
	key  string // routing key and display name: the base URL
	base string
	br   *breaker

	ready     atomic.Bool
	probeErr  atomic.Value // string: last probe failure, "" when ready
	requests  atomic.Int64
	failures  atomic.Int64
	primaries atomic.Int64 // jobs placed with this backend as primary
}

// routable reports whether new work may be sent to this backend now.
// It consults the probed readiness first so a half-open breaker is not
// spent on a backend the prober already knows is gone.
func (b *backend) routable() bool {
	return b.ready.Load() && b.br.allow()
}

// gwJob is the gateway's record of one accepted submission: the spec
// bytes (so any replica can be (re)submitted to at any time), the
// placement, and the per-backend acknowledgements collected so far.
type gwJob struct {
	ID       string
	SpecHash string
	Tenant   string
	specJSON []byte
	replicas []*backend // placement order: rank(hash)[:R]

	mu   sync.Mutex
	acks map[string]string // backend key -> backend-local job ID
}

func (j *gwJob) ack(b *backend) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.acks[b.key]
}

func (j *gwJob) setAck(b *backend, localID string) {
	j.mu.Lock()
	j.acks[b.key] = localID
	j.mu.Unlock()
}

func (j *gwJob) dropAck(b *backend) {
	j.mu.Lock()
	delete(j.acks, b.key)
	j.mu.Unlock()
}

// Gateway is the front tier.
type Gateway struct {
	cfg      Config
	backends []*backend

	mu    sync.Mutex
	jobs  map[string]*gwJob
	order []string // job insertion order, for jobCap pruning

	nextID  atomic.Int64
	nextReq atomic.Int64
	stopCh  chan struct{}
	probeWg sync.WaitGroup
	lat     latTracker

	submitted, accepted, dedupHits, cacheHits atomic.Int64
	failovers, resubmits, shed                atomic.Int64
	hedged, hedgeWins, readRepairs            atomic.Int64
	retried429                                atomic.Int64
}

// New builds a Gateway over the configured backends and starts their
// health probers. Close releases the probers.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	g := &Gateway{
		cfg:    cfg,
		jobs:   make(map[string]*gwJob),
		stopCh: make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, raw := range cfg.Backends {
		base := strings.TrimRight(raw, "/")
		if _, err := url.Parse(base); err != nil || base == "" {
			return nil, fmt.Errorf("gateway: bad backend URL %q", raw)
		}
		if seen[base] {
			return nil, fmt.Errorf("gateway: duplicate backend %q", base)
		}
		seen[base] = true
		b := &backend{
			key:  base,
			base: base,
			br: newBreaker(breakerConfig{
				consecFailures: cfg.BreakerFailures,
				openFor:        cfg.BreakerOpenFor,
			}),
		}
		// Optimistic until the first probe answers: a gateway that boots
		// ahead of its probers must not shed its first requests.
		b.ready.Store(true)
		b.probeErr.Store("")
		g.backends = append(g.backends, b)
	}
	for _, b := range g.backends {
		g.probeWg.Add(1)
		go g.probeLoop(b)
	}
	return g, nil
}

// Close stops the health probers. In-flight requests finish on their
// own contexts.
func (g *Gateway) Close() {
	close(g.stopCh)
	g.probeWg.Wait()
}

// probeLoop polls one backend's /readyz forever: an unreachable, slow,
// draining, or degraded backend is marked not ready within one probe
// interval + timeout, and the breaker hears about it too, so routing
// walks past the backend without burning a client request on it. A
// recovering backend is re-admitted the same way (probe success is the
// half-open trial).
func (g *Gateway) probeLoop(b *backend) {
	defer g.probeWg.Done()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		g.probeOnce(b)
		select {
		case <-g.stopCh:
			return
		case <-t.C:
		}
	}
}

func (g *Gateway) probeOnce(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	resp, err := server.Client{Base: b.base}.Do(ctx, http.DefaultClient, http.MethodGet, "/readyz", nil)
	if err != nil {
		b.ready.Store(false)
		b.probeErr.Store(err.Error())
		b.br.failure()
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.ready.Store(false)
		b.probeErr.Store(fmt.Sprintf("readyz: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body))))
		b.br.failure()
		return
	}
	b.ready.Store(true)
	b.probeErr.Store("")
	b.br.success()
}

// fetchRes is one completed backend HTTP exchange.
type fetchRes struct {
	status int
	body   []byte
	header http.Header
}

// call performs one API call against a backend within RequestTimeout and
// feeds the breaker: transport errors and 5xx are failures, everything else
// (including 404 and 429 — the backend is alive and talking) is a
// success. The error return is non-nil only when no HTTP response
// exists.
func (g *Gateway) call(ctx context.Context, b *backend, method, path string, body []byte, hdr http.Header) (*fetchRes, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
	defer cancel()
	b.requests.Add(1)
	resp, err := server.Client{Base: b.base, Header: hdr}.Do(ctx, http.DefaultClient, method, path, body)
	if err != nil {
		b.failures.Add(1)
		b.br.failure()
		return nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		b.failures.Add(1)
		b.br.failure()
		return nil, fmt.Errorf("reading %s %s response: %w", method, path, err)
	}
	if resp.StatusCode >= 500 {
		b.failures.Add(1)
		b.br.failure()
	} else {
		b.br.success()
	}
	return &fetchRes{status: resp.StatusCode, body: rb, header: resp.Header}, nil
}

// replicaSet is the spec's placement: the top R backends by rendezvous
// rank, followed by the rest of the fleet as spillover candidates.
func (g *Gateway) replicaSet(specHash string) (replicas, spill []*backend) {
	ranked := rank(specHash, g.backends)
	return ranked[:g.cfg.Replicas], ranked[g.cfg.Replicas:]
}

// requestID returns the caller's X-DiGS-Request, minting one when the
// caller sent none, so every hop of this request shares one trace ID.
func (g *Gateway) requestID(r *http.Request) string {
	if rid := r.Header.Get(server.HeaderRequest); rid != "" {
		return rid
	}
	return fmt.Sprintf("r-%08d", g.nextReq.Add(1))
}

// backendHeaders builds the headers forwarded on every backend call.
func backendHeaders(reqID, tenant string) http.Header {
	h := http.Header{}
	h.Set(server.HeaderRequest, reqID)
	if tenant != "" {
		h.Set("X-DiGS-Tenant", tenant)
	}
	return h
}

// registerJob records an accepted submission under a fresh gateway job
// ID, pruning the oldest records past jobCap.
func (g *Gateway) registerJob(specHash, tenant string, specJSON []byte, replicas []*backend) *gwJob {
	j := &gwJob{
		ID:       fmt.Sprintf("g-%06d", g.nextID.Add(1)),
		SpecHash: specHash,
		Tenant:   tenant,
		specJSON: specJSON,
		replicas: replicas,
		acks:     map[string]string{},
	}
	g.mu.Lock()
	g.jobs[j.ID] = j
	g.order = append(g.order, j.ID)
	for len(g.order) > jobCap {
		delete(g.jobs, g.order[0])
		g.order = g.order[1:]
	}
	g.mu.Unlock()
	return j
}

func (g *Gateway) jobByID(id string) *gwJob {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.jobs[id]
}

// Handler returns the gateway's HTTP surface — the same API shape as a
// single digs-server, so clients cannot tell one durable process from a
// replicated tier.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scenarios", g.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", g.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/result", g.handleJobResult)
	mux.HandleFunc("GET /v1/results/{hash}", g.handleResult)
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	// The gateway is alive as long as it answers; it is ready as long as
	// at least one backend is routable.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		for _, b := range g.backends {
			if b.ready.Load() {
				w.Write([]byte("ok\n"))
				return
			}
		}
		http.Error(w, "no ready backends", http.StatusServiceUnavailable)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.HeaderRequest, g.requestID(r))
		mux.ServeHTTP(w, r)
	})
}

// submitOutcome is what one successful submission routing produced.
type submitOutcome struct {
	backend *backend
	status  int                   // 200 (cached) or 202 (accepted)
	body    []byte                // 200: the backend's body, passed through as is
	ans     server.SubmitResponse // 202: the backend's acknowledgement
}

// handleSubmit routes POST /v1/scenarios: validate and hash the spec,
// pick its replica set, land it on the first routable replica (with
// bounded, Retry-After-respecting retries absorbing 429/503), replicate
// to the rest of the set in the background, and answer with a
// gateway-scoped job ID. Client errors (400/413) pass through from the
// first backend that renders the verdict — every backend would agree.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	reqID := w.Header().Get(server.HeaderRequest)
	spec, hash, ok := server.DecodeSpec(w, r)
	if !ok {
		return
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	g.submitted.Add(1)
	tenant := r.Header.Get("X-DiGS-Tenant")

	replicas, spill := g.replicaSet(hash)
	out, herr := g.submitSomewhere(r.Context(), hash, specJSON, replicas, spill, backendHeaders(reqID, tenant))
	if herr != nil {
		herr.write(w)
		return
	}
	if out.status == http.StatusOK {
		// Content-addressed cache hit on a replica: pass it through.
		g.cacheHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write(out.body)
		return
	}
	out.backend.primaries.Add(1)
	g.accepted.Add(1)
	// Dedup is the backends' job (they collapse in-flight twins onto one
	// backend job and serve finished twins from the result store); the
	// gateway just keeps its own record per client submission. Two
	// gateway jobs may share one backend job — reads don't care.
	if out.ans.Dedup {
		g.dedupHits.Add(1)
	}
	j := g.registerJob(hash, tenant, specJSON, replicas)
	j.setAck(out.backend, out.ans.JobID)
	// R-way placement: the remaining replicas get the same spec in the
	// background. Backends dedup by hash, runs are bit-identical, and a
	// replica that is down right now is caught later by the read-side
	// failover resubmit or the read-repair path.
	go g.replicate(j)
	w.Header().Set(server.HeaderJob, j.ID)
	server.WriteJSON(w, http.StatusAccepted, map[string]any{
		"job_id": j.ID, "spec_hash": hash, "status": "queued",
		"backend": out.backend.key,
	})
}

// httpError is a deferred client-facing error response.
type httpError struct {
	status     int
	msg        string
	retryAfter bool
}

func (e *httpError) write(w http.ResponseWriter) {
	if e.retryAfter {
		server.SetRetryAfter(w)
	}
	server.WriteError(w, e.status, e.msg)
}

// submitSomewhere lands the spec on the first candidate that takes it,
// under one shared attempt budget. Candidates are tried in placement
// order; 429/503 answers are absorbed by randomised backoff rounds that
// respect Retry-After, transport errors and 5xx fail the candidate over
// to the next, and 4xx verdicts are final. Every round consumes budget
// — each attempt costs one unit, and a round with no routable candidate
// at all costs one too — so even a fleet-wide outage degrades to the
// 503 + Retry-After shed path within SubmitRetries rounds instead of
// retrying forever.
func (g *Gateway) submitSomewhere(ctx context.Context, hash string, specJSON []byte, replicas, spill []*backend, hdr http.Header) (*submitOutcome, *httpError) {
	budget := g.cfg.SubmitRetries
	wait := retryBase
	candidates := append(append([]*backend(nil), replicas...), spill...)
	for round := 0; budget > 0; round++ {
		sawBackpressure := false
		attempted := false
		var hint time.Duration
		for ci, b := range candidates {
			if budget <= 0 {
				break
			}
			if !b.routable() {
				continue
			}
			budget--
			attempted = true
			if round > 0 || ci > 0 {
				g.failovers.Add(1)
			}
			res, err := g.call(ctx, b, http.MethodPost, "/v1/scenarios", specJSON, hdr)
			if err != nil {
				if ctx.Err() != nil {
					return nil, &httpError{status: 499, msg: "client canceled"}
				}
				continue // transport failure: next candidate
			}
			var ans server.SubmitResponse
			switch {
			case res.status == http.StatusOK:
				return &submitOutcome{backend: b, status: res.status, body: res.body}, nil
			case res.status == http.StatusAccepted:
				if json.Unmarshal(res.body, &ans) != nil || ans.JobID == "" {
					continue
				}
				return &submitOutcome{backend: b, status: res.status, ans: ans}, nil
			case res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable:
				// Backpressure or draining/degraded: remember the hint and
				// fail over to the next replica first; a backoff round only
				// happens when the whole fleet is pushing back.
				sawBackpressure = true
				if d := server.RetryAfter(res.header); d > hint {
					hint = d
				}
				if res.status == http.StatusTooManyRequests {
					g.retried429.Add(1)
				}
				continue
			case res.status >= 500:
				continue
			default:
				// 400/413/...: a verdict about the spec, not the backend.
				_ = json.Unmarshal(res.body, &ans) // an undecodable verdict passes on with no text
				return nil, &httpError{status: res.status, msg: ans.Error}
			}
		}
		if !attempted {
			// A fleet-wide outage (every probe failing or breaker open)
			// makes zero attempts, so the round must consume budget itself —
			// otherwise the loop would spin forever and the documented
			// 503 shed path would never be reached.
			budget--
		}
		if budget <= 0 {
			break
		}
		if !sawBackpressure {
			// Nothing routable answered at all this round: brief pause so a
			// probe can notice a recovery, then try again within budget.
			hint = wait
		}
		select {
		case <-ctx.Done():
			return nil, &httpError{status: 499, msg: "client canceled"}
		case <-time.After(min(server.Jitter(max(hint, wait)), retryCap)):
		}
		wait = min(wait*2, retryCap)
	}
	g.shed.Add(1)
	return nil, &httpError{
		status: http.StatusServiceUnavailable, retryAfter: true,
		msg: "no backend accepted the submission within the retry budget",
	}
}

// replicate pushes the job's spec to every replica the gateway holds no
// ack from yet. Best-effort: a replica that is down is repaired later
// by read-side resubmission or read-repair.
func (g *Gateway) replicate(j *gwJob) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.RequestTimeout)
	defer cancel()
	for _, b := range j.replicas {
		if j.ack(b) != "" || !b.routable() {
			continue
		}
		g.resubmit(ctx, j, b)
	}
}

// resubmit lands the job's spec on one specific backend and records the
// ack. A 200 means the backend already holds the result — the returned
// bytes stand in for an ack. Dedup 202s are acks like any other: the
// backend-local job (whether freshly queued or already running) is what
// this replica knows the spec as.
func (g *Gateway) resubmit(ctx context.Context, j *gwJob, b *backend) (localID string, cached []byte, err error) {
	hdr := backendHeaders(fmt.Sprintf("r-%08d", g.nextReq.Add(1)), j.Tenant)
	res, err := g.call(ctx, b, http.MethodPost, "/v1/scenarios", j.specJSON, hdr)
	if err != nil {
		return "", nil, err
	}
	var ans server.SubmitResponse
	switch res.status {
	case http.StatusOK:
		if err := json.Unmarshal(res.body, &ans); err != nil {
			return "", nil, err
		}
		return "", ans.Result, nil
	case http.StatusAccepted:
		if json.Unmarshal(res.body, &ans) != nil || ans.JobID == "" {
			return "", nil, fmt.Errorf("resubmit to %s: malformed 202", b.key)
		}
		g.resubmits.Add(1)
		j.setAck(b, ans.JobID)
		return ans.JobID, nil, nil
	default:
		return "", nil, fmt.Errorf("resubmit to %s: HTTP %d", b.key, res.status)
	}
}

// BackendStats is one backend's slice of the gateway stats document.
type BackendStats struct {
	Name         string `json:"name"`
	Ready        bool   `json:"ready"`
	Breaker      string `json:"breaker"`
	BreakerOpens int64  `json:"breaker_opens"`
	Requests     int64  `json:"requests"`
	Failures     int64  `json:"failures"`
	PrimaryJobs  int64  `json:"primary_jobs"`
	ProbeError   string `json:"probe_error,omitempty"`
}

// Stats is the gateway's /v1/stats document.
type Stats struct {
	Submitted   int64          `json:"submitted"`
	Accepted    int64          `json:"accepted"`
	DedupHits   int64          `json:"dedup_hits"`
	CacheHits   int64          `json:"cache_hits"`
	Failovers   int64          `json:"failovers"`
	Resubmits   int64          `json:"resubmits"`
	HedgedReads int64          `json:"hedged_reads"`
	HedgeWins   int64          `json:"hedge_wins"`
	ReadRepairs int64          `json:"read_repairs"`
	Retried429  int64          `json:"retried_429"`
	Shed        int64          `json:"shed"`
	Jobs        int            `json:"jobs"`
	Backends    []BackendStats `json:"backends"`
}

func (g *Gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	g.mu.Lock()
	jobs := len(g.jobs)
	g.mu.Unlock()
	st := Stats{
		Submitted:   g.submitted.Load(),
		Accepted:    g.accepted.Load(),
		DedupHits:   g.dedupHits.Load(),
		CacheHits:   g.cacheHits.Load(),
		Failovers:   g.failovers.Load(),
		Resubmits:   g.resubmits.Load(),
		HedgedReads: g.hedged.Load(),
		HedgeWins:   g.hedgeWins.Load(),
		ReadRepairs: g.readRepairs.Load(),
		Retried429:  g.retried429.Load(),
		Shed:        g.shed.Load(),
		Jobs:        jobs,
	}
	for _, b := range g.backends {
		state, opens := b.br.snapshot()
		st.Backends = append(st.Backends, BackendStats{
			Name:         b.key,
			Ready:        b.ready.Load(),
			Breaker:      state.String(),
			BreakerOpens: opens,
			Requests:     b.requests.Load(),
			Failures:     b.failures.Load(),
			PrimaryJobs:  b.primaries.Load(),
			ProbeError:   b.probeErr.Load().(string),
		})
	}
	server.WriteJSON(w, http.StatusOK, st)
}
