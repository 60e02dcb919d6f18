package server

import (
	"encoding/json"
	"sync"
	"time"

	"github.com/digs-net/digs/internal/scenario"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states.
const (
	// StatusQueued: admitted, waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning: a worker is simulating it.
	StatusRunning Status = "running"
	// StatusDone: completed; the result is available.
	StatusDone Status = "done"
	// StatusFailed: terminal (dead letter) — its run errored or
	// panicked, or it hit the crash-loop guard (maxAttempts).
	StatusFailed Status = "failed"
	// StatusCanceled: evicted from the queue or aborted by shutdown.
	StatusCanceled Status = "canceled"
)

// Job is one admitted scenario submission moving through the queue.
type Job struct {
	ID       string
	Tenant   string
	SpecHash string
	Spec     scenario.Spec
	Stream   *Broadcast

	mu         sync.Mutex
	status     Status
	attempts   int // run attempts consumed (interrupted attempts count)
	submitted  time.Time
	started    time.Time
	finished   time.Time
	warmHit    bool
	result     []byte // canonical result encoding (done only)
	resultHash string
	errMsg     string
	done       chan struct{}
}

func newJob(id, tenant, specHash string, spec scenario.Spec) *Job {
	return &Job{
		ID: id, Tenant: tenant, SpecHash: specHash, Spec: spec,
		Stream:    NewBroadcast(maxStreamLines),
		status:    StatusQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
}

// Done closes when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns the current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// beginAttempt consumes one run attempt and returns its 1-based number.
func (j *Job) beginAttempt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.attempts++
	return j.attempts
}

// Attempts returns how many run attempts the job has consumed.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// setAttempts restores the consumed-attempt count on journal replay.
func (j *Job) setAttempts(n int) {
	j.mu.Lock()
	j.attempts = n
	j.mu.Unlock()
}

func (j *Job) markRunning() {
	j.mu.Lock()
	j.status = StatusRunning
	if j.started.IsZero() {
		j.started = time.Now()
	}
	j.mu.Unlock()
}

func (j *Job) markDone(result []byte, resultHash string, warmHit bool) {
	j.mu.Lock()
	j.status = StatusDone
	j.result = result
	j.resultHash = resultHash
	j.warmHit = warmHit
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

func (j *Job) markFailed(msg string) {
	j.mu.Lock()
	j.status = StatusFailed
	j.errMsg = msg
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

func (j *Job) markCanceled(msg string) {
	j.mu.Lock()
	j.status = StatusCanceled
	j.errMsg = msg
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// Result returns the canonical result bytes and hash (nil until done).
func (j *Job) Result() ([]byte, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.resultHash
}

// View is the JSON shape of a job's status.
type View struct {
	JobID      string          `json:"job_id"`
	SpecHash   string          `json:"spec_hash"`
	Tenant     string          `json:"tenant"`
	Status     Status          `json:"status"`
	Attempts   int             `json:"attempts,omitempty"`
	WarmStart  bool            `json:"warm_start"`
	Error      string          `json:"error,omitempty"`
	ResultHash string          `json:"result_hash,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	QueuedMs   float64         `json:"queued_ms"`
	RunMs      float64         `json:"run_ms,omitempty"`
}

// View snapshots the job for the status and stream endpoints;
// includeResult inlines the canonical result when done.
func (j *Job) View(includeResult bool) View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		JobID:      j.ID,
		SpecHash:   j.SpecHash,
		Tenant:     j.Tenant,
		Status:     j.status,
		Attempts:   j.attempts,
		WarmStart:  j.warmHit,
		Error:      j.errMsg,
		ResultHash: j.resultHash,
	}
	switch {
	case !j.started.IsZero():
		v.QueuedMs = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
	case !j.finished.IsZero(): // canceled straight out of the queue
		v.QueuedMs = float64(j.finished.Sub(j.submitted)) / float64(time.Millisecond)
	default:
		v.QueuedMs = float64(time.Since(j.submitted)) / float64(time.Millisecond)
	}
	if !j.started.IsZero() && !j.finished.IsZero() {
		v.RunMs = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	if includeResult && j.status == StatusDone {
		v.Result = json.RawMessage(j.result)
	}
	return v
}
