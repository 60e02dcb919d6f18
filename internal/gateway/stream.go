package gateway

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"github.com/digs-net/digs/internal/server"
)

// handleStream serves GET /v1/jobs/{id}/stream: the job's SSE telemetry
// proxied from whichever replica is alive, with transparent reattach.
// Because replica runs are bit-identical, telemetry line K on one
// replica is line K on every replica — so the gateway tracks a logical
// cursor (how many lines the client has) and, after a mid-stream
// backend loss, resumes from a survivor by replaying its stream and
// skipping everything below the cursor. Retention gaps are surfaced
// with the same "dropped" events a single backend emits: the client's
// gap accounting works unchanged across a failover.
func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	j := g.jobByID(r.PathValue("id"))
	if j == nil {
		server.WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := server.OpenStream(w, j.ID)
	if !ok {
		return
	}

	cursor := 0 // logical index of the next telemetry line the client needs
	tried := map[string]bool{}
	var cachedResult []byte // terminal fallback from a result-only replica
	for {
		b := g.nextStreamReplica(j, tried)
		if b == nil {
			if cachedResult != nil {
				// No replica holds a live job, but one holds the finished
				// result: close out from the stored bytes. The telemetry
				// backlog is gone, so the undelivered tail is reported as
				// a dropped gap before the done event — skipped lines are
				// never silent.
				finishFromCached(w, fl, j, cachedResult)
				return
			}
			server.WriteEvent(w, "error", "no replica can serve the stream")
			fl.Flush()
			return
		}
		tried[b.key] = true
		done, clientGone, cached := g.followBackendStream(r.Context(), w, fl, j, b, &cursor)
		if done || clientGone {
			return
		}
		if cached != nil {
			// This replica only has the stored result — remember it as the
			// fallback, but keep looking for a replica with a live job
			// first: a live stream can still deliver the telemetry.
			cachedResult = cached
			continue
		}
		// The backend died mid-stream: tell the client, then reattach to
		// the next replica at the current cursor.
		server.WriteEvent(w, "failover", b.key)
		fl.Flush()
	}
}

// nextStreamReplica picks the best untried backend for the stream:
// acked replicas first, then anything else in rank order.
func (g *Gateway) nextStreamReplica(j *gwJob, tried map[string]bool) *backend {
	for _, b := range g.readCandidates(j) {
		if !tried[b.key] {
			return b
		}
	}
	return nil
}

// followBackendStream attaches to one backend's SSE stream for the job
// and forwards events past the cursor, flushing them to the client before
// each read from the backend (flushBeforeRead). It returns done=true when
// the terminal event was delivered, clientGone=true when the client hung
// up, and cached non-nil when the replica holds only the stored result
// (no live job to stream — the caller should prefer another replica and
// keep the bytes as a terminal fallback). All three zero means the
// backend failed mid-stream and the caller should fail over.
func (g *Gateway) followBackendStream(ctx context.Context, w http.ResponseWriter, fl http.Flusher,
	j *gwJob, b *backend, cursor *int) (done, clientGone bool, cachedResult []byte) {
	localID := j.ack(b)
	if localID == "" {
		rctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
		id, cached, err := g.resubmit(rctx, j, b)
		cancel()
		if err != nil {
			return false, ctx.Err() != nil, nil
		}
		if cached != nil {
			return false, false, cached
		}
		localID = id
	}

	resp, err := server.Client{Base: b.base}.Do(ctx, http.DefaultClient, http.MethodGet, "/v1/jobs/"+localID+"/stream", nil)
	if err != nil {
		b.br.failure()
		return false, ctx.Err() != nil, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		// The backend forgot the job (finished-job cap): drop the stale
		// ack so a later pass resubmits instead of re-hitting the 404.
		j.dropAck(b)
		return false, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return false, false, nil
	}

	pos := 0 // this backend stream's logical position
	er := server.NewEventReader(flushBeforeRead{resp.Body, fl})
	for {
		// A read error, a backend cut mid-line included, is the failure
		// signal: the reader never hands over an unterminated fragment,
		// so the cursor cannot pass a line the next replica still has.
		event, data, err := er.Next()
		if err != nil {
			break
		}
		switch event {
		case "done":
			if v, err := stampView(j, []byte(data)); err == nil {
				enc, _ := json.Marshal(v) // a view that decoded encodes
				data = string(enc)
			}
			server.WriteEvent(w, "done", data)
			fl.Flush()
			return true, false, nil
		case "dropped":
			n, err := strconv.Atoi(strings.TrimSpace(data))
			if err != nil || n < 0 {
				n = 0
			}
			// The backend lost lines [pos, pos+n) to retention. The
			// client only misses the part at or past its cursor —
			// lines below it were already delivered by this replica
			// or a previous one.
			end := pos + n
			if end > *cursor {
				if miss := end - max(*cursor, pos); miss > 0 {
					server.WriteEvent(w, "dropped", strconv.Itoa(miss))
				}
				*cursor = end
			}
			pos = end
		default: // telemetry line
			if pos >= *cursor {
				if server.WriteEvent(w, "message", data) != nil {
					return false, true, nil
				}
				*cursor = pos + 1
			}
			pos++
		}
	}
	// Stream ended (or was cut mid-line) without a done event: mid-body
	// loss of the backend.
	b.br.failure()
	return false, ctx.Err() != nil, nil
}

// flushBeforeRead is the relay's backend body: it flushes what the relay
// wrote to its client before every read from the backend, the one place
// the relay can block. Lines are written as they come and reach the
// client once the relay has caught up with its backend — never held while
// it waits, and never one flush per line.
type flushBeforeRead struct {
	body io.Reader
	fl   http.Flusher
}

func (r flushBeforeRead) Read(p []byte) (int, error) {
	r.fl.Flush()
	return r.body.Read(p)
}

// finishFromCached closes out a stream when no replica holds a live job
// and only the stored result survives: the terminal view built from the
// result bytes is delivered as the done event. The telemetry backlog is
// gone with the jobs, so every line at or past the client's cursor is
// undelivered — and since the total line count is unknowable without
// re-running the scenario, the gap is reported as an indeterminate
// dropped event (data: -1) rather than skipped silently. Clients doing
// exact delivered+dropped accounting see the accounting break flagged
// instead of a stream that quietly claims completeness.
func finishFromCached(w http.ResponseWriter, fl http.Flusher, j *gwJob, result []byte) {
	view := synthDoneView(j, result)
	enc, err := json.Marshal(view)
	if err != nil {
		return
	}
	server.WriteEvent(w, "dropped", "-1")
	server.WriteEvent(w, "done", enc)
	fl.Flush()
}
