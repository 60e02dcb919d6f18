package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/digs-net/digs/internal/scenario"
)

// SubmitResponse is the answer to POST /v1/scenarios, declared once: the
// server writes it, the gateway and every client decode it. A 202 carries
// job_id, spec_hash, status and (for an in-flight twin) dedup; a 200 cache
// hit carries spec_hash, cached and result; every other status carries
// error. Field order is wire order.
type SubmitResponse struct {
	JobID    string          `json:"job_id,omitempty"`
	SpecHash string          `json:"spec_hash,omitempty"`
	Status   Status          `json:"status,omitempty"`
	Dedup    bool            `json:"dedup,omitempty"`
	Cached   bool            `json:"cached,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`

	// Code and Header are the HTTP status and response headers a Client
	// saw; they are not part of the body.
	Code   int         `json:"-"`
	Header http.Header `json:"-"`
}

// RetryAfter parses a Retry-After header given in whole seconds, capped at
// 5 s so a hostile hint cannot stall the caller. Absent, malformed or
// negative reads as 0; callers apply their own floor.
func RetryAfter(h http.Header) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h.Get("Retry-After")))
	if err != nil || secs < 0 {
		return 0
	}
	return min(time.Duration(secs)*time.Second, 5*time.Second)
}

// SetRetryAfter stamps the pushback hint every 429, 503 and pending answer
// carries: come back in a second.
func SetRetryAfter(w http.ResponseWriter) { w.Header().Set("Retry-After", "1") }

// Jitter spreads a delay uniformly over [d/2, d] so that retries from a
// burst of callers do not land in lockstep.
func Jitter(d time.Duration) time.Duration {
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// Client speaks the service API to a digs-server or a digs-gateway (the
// two are indistinguishable by design). The zero Header sends nothing
// extra; set X-DiGS-Tenant or X-DiGS-Request there.
type Client struct {
	Base   string      // e.g. http://127.0.0.1:8080
	Header http.Header // added to every request
}

// Two HTTP clients, on purpose: api bounds every submit/status/stats call
// so a hung or partitioned backend cannot stall it forever, while an SSE
// stream is supposed to stay open for the life of the job and is bounded
// by followBudget end to end instead.
var api = &http.Client{Timeout: 30 * time.Second}

const (
	followBudget = 5 * time.Minute
	// submit429Retries bounds how long Submit chases Retry-After hints
	// before the backpressure is handed to the caller.
	submit429Retries = 10
)

// Do sends one request to c.Base+path through hc with c.Header added, and
// a JSON content type when there is a body. It is the one place a request
// to the service is built: the methods below and the gateway's backend
// calls, probes and stream attaches all go through it.
func (c Client) Do(ctx context.Context, hc *http.Client, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range c.Header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return hc.Do(req)
}

// Submit posts the spec. A 429 is flow control, not failure: it is retried
// after the server's Retry-After hint (floor 100 ms) up to a bounded
// budget, then returned like any other answer. The error is non-nil only
// when no decodable HTTP answer exists.
func (c Client) Submit(spec scenario.Spec) (*SubmitResponse, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		resp, err := c.Do(context.Background(), api, http.MethodPost, "/v1/scenarios", body)
		if err != nil {
			return nil, err
		}
		out := &SubmitResponse{Code: resp.StatusCode, Header: resp.Header}
		err = json.NewDecoder(resp.Body).Decode(out)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decoding HTTP %d submit answer: %w", out.Code, err)
		}
		if out.Code != http.StatusTooManyRequests || attempt >= submit429Retries {
			return out, nil
		}
		time.Sleep(max(RetryAfter(out.Header), 100*time.Millisecond))
	}
}

// Get fetches path and returns whatever the service answered; the error is
// non-nil only when no HTTP answer exists.
func (c Client) Get(path string) (code int, body []byte, hdr http.Header, err error) {
	resp, err := c.Do(context.Background(), api, http.MethodGet, path, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header, err
}

// Stats decodes /v1/stats into v: a *server.Stats from a backend, a
// *gateway.Stats from a gateway.
func (c Client) Stats(v any) error {
	code, body, _, err := c.Get("/v1/stats")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("stats: HTTP %d", code)
	}
	return json.Unmarshal(body, v)
}

// Await polls the job's status until it is terminal or the deadline
// passes. A 404 means the service forgot a job it had acknowledged.
func (c Client) Await(jobID string, deadline time.Time) (*View, error) {
	for {
		code, body, _, err := c.Get("/v1/jobs/" + jobID)
		if err != nil {
			return nil, err
		}
		if code == http.StatusNotFound {
			return nil, fmt.Errorf("job %s lost: status answers 404", jobID)
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("job %s status: HTTP %d", jobID, code)
		}
		var v View
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, err
		}
		switch v.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			return &v, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s at the deadline", jobID, v.Status)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// Stream is one job's SSE stream as Follow read it.
type Stream struct {
	Lines   []string // telemetry lines, in delivery order
	Dropped int      // lines the service reported lost to retention
	// Indeterminate records a "dropped -1": a gateway closing the stream
	// from a stored result, the telemetry and its length gone with the job.
	Indeterminate bool
	Failovers     int   // gateway reattachments to another replica
	Done          *View // the terminal view; nil only beside an error
}

// Follow reads the job's SSE stream to its done event, calling onLine
// (when non-nil) with the running count after each telemetry line. An
// answer that is not an event stream is an error; so are an error event
// and a stream that ends without done, beside what was read until then.
func (c Client) Follow(jobID string, onLine func(n int)) (*Stream, error) {
	ctx, cancel := context.WithTimeout(context.Background(), followBudget)
	defer cancel()
	resp, err := c.Do(ctx, http.DefaultClient, http.MethodGet, "/v1/jobs/"+jobID+"/stream", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/event-stream" {
		return nil, fmt.Errorf("stream for %s: HTTP %d, content type %q", jobID, resp.StatusCode, ct)
	}
	s := &Stream{}
	er := NewEventReader(resp.Body)
	for {
		event, data, err := er.Next()
		if err != nil {
			return s, fmt.Errorf("stream for %s ended without a done event (%v)", jobID, err)
		}
		switch event {
		case "done":
			var v View
			if err := json.Unmarshal([]byte(data), &v); err != nil {
				return s, fmt.Errorf("stream for %s: done event: %w", jobID, err)
			}
			s.Done = &v
			return s, nil
		case "dropped":
			n, err := strconv.Atoi(strings.TrimSpace(data))
			if err != nil {
				return s, fmt.Errorf("stream for %s: dropped event %q: %w", jobID, data, err)
			}
			if n < 0 {
				s.Indeterminate = true
			} else {
				s.Dropped += n
			}
		case "failover":
			s.Failovers++
		case "error":
			return s, fmt.Errorf("stream for %s: %s", jobID, data)
		case "message":
			s.Lines = append(s.Lines, data)
			if onLine != nil {
				onLine(len(s.Lines))
			}
		}
	}
}
