package gateway

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/digs-net/digs/internal/server"
)

// latTracker keeps a ring of recent read latencies and derives the
// hedging budget from them: a read that has waited past the p90 of its
// recent peers is probably stuck on a sick replica, so a hedge to the
// next replica is cheap insurance.
type latTracker struct {
	mu   sync.Mutex
	ring [64]time.Duration
	n, i int
}

func (l *latTracker) observe(d time.Duration) {
	l.mu.Lock()
	l.ring[l.i] = d
	l.i = (l.i + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.mu.Unlock()
}

// budget returns the current hedge delay: the p90 of recent reads
// clamped to [10ms, 2s] (100ms until enough samples exist to trust a
// percentile).
func (l *latTracker) budget() time.Duration {
	l.mu.Lock()
	n := l.n
	sorted := make([]time.Duration, n)
	copy(sorted, l.ring[:n])
	l.mu.Unlock()
	if n < 8 {
		return 100 * time.Millisecond
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	d := sorted[(n-1)*9/10]
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// hedged runs fn against the candidates with staggered starts: the
// first candidate fires immediately, each further one after another
// hedge budget elapses without an answer. The first success wins and
// cancels the rest; errors release the next candidate immediately.
func hedged[T any](ctx context.Context, g *Gateway, candidates []*backend,
	fn func(context.Context, *backend) (T, error)) (T, *backend, error) {
	var zero T
	if len(candidates) == 0 {
		return zero, nil, fmt.Errorf("no routable backend")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		val T
		b   *backend
		err error
	}
	results := make(chan outcome, len(candidates))
	launch := func(b *backend, hedge bool) {
		if hedge {
			g.hedged.Add(1)
		}
		go func() {
			start := time.Now()
			v, err := fn(ctx, b)
			if err == nil {
				g.lat.observe(time.Since(start))
				if hedge {
					g.hedgeWins.Add(1)
				}
			}
			results <- outcome{v, b, err}
		}()
	}
	launch(candidates[0], false)
	next, pending := 1, 1
	var lastErr error
	for pending > 0 {
		var timer <-chan time.Time
		if next < len(candidates) {
			timer = time.After(g.lat.budget())
		}
		select {
		case out := <-results:
			pending--
			if out.err == nil {
				return out.val, out.b, nil
			}
			lastErr = out.err
			if next < len(candidates) {
				launch(candidates[next], false)
				next++
				pending++
			}
		case <-timer:
			launch(candidates[next], true)
			next++
			pending++
		case <-ctx.Done():
			return zero, nil, ctx.Err()
		}
	}
	return zero, nil, lastErr
}

// readCandidates orders the backends a job read should try: replicas
// the gateway holds acks from first (in placement order), then the rest
// of the placement, then the spillover fleet — all filtered to ready
// ones. With nothing ready, every backend is a candidate (the probe may
// be stale; better to try than to refuse).
func (g *Gateway) readCandidates(j *gwJob) []*backend {
	ranked := rank(j.SpecHash, g.backends)
	var acked, rest, down []*backend
	for _, b := range ranked {
		switch {
		case !b.ready.Load():
			down = append(down, b)
		case j.ack(b) != "":
			acked = append(acked, b)
		default:
			rest = append(rest, b)
		}
	}
	out := append(append(acked, rest...), down...)
	return out
}

// synthDoneView builds a terminal view for a job whose result came back
// from a replica's content-addressed store rather than a live job
// record (the job itself may have aged out of that backend's
// finished-job cap — the result is what matters).
func synthDoneView(j *gwJob, result []byte) *server.View {
	sum := sha256.Sum256(result)
	return &server.View{
		JobID:      j.ID,
		SpecHash:   j.SpecHash,
		Tenant:     j.Tenant,
		Status:     server.StatusDone,
		ResultHash: hex.EncodeToString(sum[:]),
		Result:     json.RawMessage(result),
	}
}

// readLocal reads /v1/jobs/{local ID}{suffix} from one backend. The local
// ID is the gateway's ack from that backend; with none, the spec is
// resubmitted there first. A 404 on the first read means the backend forgot
// the job (journal recovery keeps jobs across crashes, but a terminal job
// past the finished-job cap is dropped), so the ack goes and the spec is
// resubmitted once more. A resubmission that hits the backend's result
// store answers with the stored bytes, returned as cached; one that
// re-runs is bit-identical.
func (g *Gateway) readLocal(ctx context.Context, j *gwJob, b *backend, suffix string) (res *fetchRes, cached []byte, err error) {
	localID := j.ack(b)
	for attempt := 0; ; attempt++ {
		if localID == "" {
			if localID, cached, err = g.resubmit(ctx, j, b); err != nil || cached != nil {
				return nil, cached, err
			}
		}
		res, err = g.call(ctx, b, http.MethodGet, "/v1/jobs/"+localID+suffix, nil, nil)
		if err != nil || res.status != http.StatusNotFound || attempt > 0 {
			return res, nil, err
		}
		j.dropAck(b)
		localID = ""
	}
}

// stampView decodes a backend's job view and gives it the gateway's job
// ID.
func stampView(j *gwJob, body []byte) (*server.View, error) {
	var v server.View
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	v.JobID = j.ID
	return &v, nil
}

// viewFrom fetches the job's status from one backend.
func (g *Gateway) viewFrom(ctx context.Context, j *gwJob, b *backend) (*server.View, error) {
	res, cached, err := g.readLocal(ctx, j, b, "")
	switch {
	case err != nil:
		return nil, err
	case cached != nil:
		return synthDoneView(j, cached), nil
	case res.status != http.StatusOK:
		return nil, fmt.Errorf("status read from %s: HTTP %d", b.key, res.status)
	}
	return stampView(j, res.body)
}

// handleJob serves GET /v1/jobs/{id}: a hedged status read across the
// job's replicas, transparently resubmitting to a survivor when the
// replica that acknowledged the job is gone.
func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	j := g.jobByID(r.PathValue("id"))
	if j == nil {
		server.WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set(server.HeaderJob, j.ID)
	view, b, err := hedged(r.Context(), g, g.readCandidates(j),
		func(ctx context.Context, b *backend) (*server.View, error) {
			return g.viewFrom(ctx, j, b)
		})
	if err != nil {
		server.WriteError(w, http.StatusServiceUnavailable, fmt.Sprintf("no replica answered: %v", err))
		return
	}
	w.Header().Set(server.HeaderBackend, b.key)
	server.WriteJSON(w, http.StatusOK, view)
}

// jobResult is one backend's answer to a job-result read.
type jobResult struct {
	status     int    // 200 done, 202 pending, 410 terminal failure
	body       []byte // raw result (200) or view JSON (202/410)
	resultHash string // 200 only
}

// resultFrom fetches the job's result from one backend.
func (g *Gateway) resultFrom(ctx context.Context, j *gwJob, b *backend) (*jobResult, error) {
	res, cached, err := g.readLocal(ctx, j, b, "/result")
	switch {
	case err != nil:
		return nil, err
	case cached != nil:
		sum := sha256.Sum256(cached)
		return &jobResult{status: http.StatusOK, body: cached, resultHash: hex.EncodeToString(sum[:])}, nil
	}
	switch res.status {
	case http.StatusOK:
		return &jobResult{status: res.status, body: res.body, resultHash: res.header.Get("X-DiGS-Result-Hash")}, nil
	case http.StatusAccepted, http.StatusGone:
		out := &jobResult{status: res.status, body: res.body}
		if v, err := stampView(j, res.body); err == nil {
			out.body, _ = json.Marshal(v) // a view that decoded encodes
		}
		return out, nil
	case http.StatusNotFound:
		return nil, fmt.Errorf("result read from %s: job lost", b.key)
	default:
		return nil, fmt.Errorf("result read from %s: HTTP %d", b.key, res.status)
	}
}

// handleJobResult serves GET /v1/jobs/{id}/result with hedged reads and
// failover, mirroring a single backend's response shapes.
func (g *Gateway) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := g.jobByID(r.PathValue("id"))
	if j == nil {
		server.WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set(server.HeaderJob, j.ID)
	res, b, err := hedged(r.Context(), g, g.readCandidates(j),
		func(ctx context.Context, b *backend) (*jobResult, error) {
			return g.resultFrom(ctx, j, b)
		})
	if err != nil {
		server.WriteError(w, http.StatusServiceUnavailable, fmt.Sprintf("no replica answered: %v", err))
		return
	}
	w.Header().Set(server.HeaderBackend, b.key)
	if res.resultHash != "" {
		w.Header().Set("X-DiGS-Result-Hash", res.resultHash)
	}
	if res.status == http.StatusAccepted {
		server.SetRetryAfter(w)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	w.Write(res.body)
	if len(res.body) > 0 && res.body[len(res.body)-1] != '\n' {
		w.Write([]byte("\n"))
	}
}

// handleResult serves GET /v1/results/{hash}: a hedged read across the
// hash's replica set (then the spillover fleet), and — when the result
// turns out to live on fewer replicas than the placement demands — a
// background read-repair that re-replicates it, so one surviving copy
// is enough to heal the set.
func (g *Gateway) handleResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	replicas, spill := g.replicaSet(hash)
	var ready, down []*backend
	for _, b := range append(append([]*backend(nil), replicas...), spill...) {
		if b.ready.Load() {
			ready = append(ready, b)
		} else {
			down = append(down, b)
		}
	}
	candidates := append(ready, down...)
	type hashRes struct {
		body []byte
	}
	// A 404 is a verdict (that backend is alive and does not hold the
	// result); a transport error or 5xx says nothing about existence. The
	// two must not collapse into one answer: a fleet outage reported as
	// "no stored result" reads as a definitive miss callers may cache.
	var saw404 atomic.Bool
	res, b, err := hedged(r.Context(), g, candidates,
		func(ctx context.Context, b *backend) (*hashRes, error) {
			fr, err := g.call(ctx, b, http.MethodGet, "/v1/results/"+hash, nil, nil)
			if err != nil {
				return nil, err
			}
			if fr.status == http.StatusNotFound {
				saw404.Store(true)
			}
			if fr.status != http.StatusOK {
				return nil, fmt.Errorf("%s: HTTP %d", b.key, fr.status)
			}
			return &hashRes{body: fr.body}, nil
		})
	if err != nil {
		if saw404.Load() {
			server.WriteError(w, http.StatusNotFound, "no stored result for that spec hash")
			return
		}
		server.SetRetryAfter(w)
		server.WriteError(w, http.StatusServiceUnavailable, fmt.Sprintf("no replica reachable for that spec hash: %v", err))
		return
	}
	w.Header().Set(server.HeaderBackend, b.key)
	w.Header().Set("Content-Type", "application/json")
	w.Write(res.body)
	go g.readRepair(hash, b, replicas, res.body)
}

// readRepair re-replicates a result onto replica-set members that are
// missing it. The source replica already holds it; every other ready
// member is asked, and a 404 is answered with a PUT of the bytes we
// just served. This is how a result that survived on a single replica
// (the others crashed before their run, or their stores were wiped)
// climbs back to full replication.
func (g *Gateway) readRepair(hash string, source *backend, replicas []*backend, result []byte) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.RequestTimeout)
	defer cancel()
	trimmed := result
	for len(trimmed) > 0 && (trimmed[len(trimmed)-1] == '\n' || trimmed[len(trimmed)-1] == ' ') {
		trimmed = trimmed[:len(trimmed)-1]
	}
	for _, b := range replicas {
		if b == source || !b.ready.Load() {
			continue
		}
		probe, err := g.call(ctx, b, http.MethodGet, "/v1/results/"+hash, nil, nil)
		if err != nil || probe.status != http.StatusNotFound {
			continue
		}
		put, err := g.call(ctx, b, http.MethodPut, "/v1/results/"+hash, trimmed, nil)
		if err == nil && put.status == http.StatusNoContent {
			g.readRepairs.Add(1)
		}
	}
}
