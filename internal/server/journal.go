package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/store"
)

// The journal is the server's durability log: an append-only JSONL file
// of versioned records, one per job lifecycle transition, fsync'd on
// every append. A submission is acknowledged with 202 only after its
// submit record is on disk, so the set of accepted jobs survives
// SIGKILL; on restart the journal is replayed — finished jobs are
// re-registered from the result store, interrupted ones are re-enqueued
// — and compacted, so it carries one submit plus at most one terminal
// record per retained job rather than the full history of the previous
// incarnation.
//
// The record stream is strictly ordered per job (submit, then one start
// per incarnation that ran it, then exactly one terminal op), because
// every append happens either inside the submit critical section or
// from the single worker goroutine that owns the job at that moment.

// journalSchema versions the on-disk record format.
const journalSchema = "digs-journal/v1"

// journalFile is the journal's name under the server's data directory.
const journalFile = "journal.jsonl"

// Journal ops, in lifecycle order.
const (
	opSubmit = "submit" // job accepted; carries tenant, spec hash, full spec
	opStart  = "start"  // a worker began attempt N
	opRetry  = "retry"  // attempt N failed and ran again; never written, replay folds it like start
	opDone   = "done"   // terminal: result stored; carries the result hash
	opFail   = "fail"   // terminal: dead-lettered (its run failed, or the crash-loop guard)
	opCancel = "cancel" // terminal: evicted from the queue or by shutdown
)

// journalRecord is one JSONL line.
type journalRecord struct {
	Schema     string         `json:"schema"`
	Seq        int64          `json:"seq"`
	Op         string         `json:"op"`
	Job        string         `json:"job"`
	Tenant     string         `json:"tenant,omitempty"`
	SpecHash   string         `json:"spec_hash,omitempty"`
	Spec       *scenario.Spec `json:"spec,omitempty"`
	Attempt    int            `json:"attempt,omitempty"`
	ResultHash string         `json:"result_hash,omitempty"`
	Detail     string         `json:"detail,omitempty"`
}

// journal is the append side: an O_APPEND file handle plus a sequence
// counter, serialised by its own mutex so appends from the submit path
// and the workers interleave as whole records.
type journal struct {
	mu  sync.Mutex
	f   *os.File
	seq int64
}

// openJournal opens (creating if missing) the journal for appending.
func openJournal(path string) (*journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{f: f}, nil
}

// append writes one record (schema and seq are filled in here) and
// fsyncs before returning — the record is durable once append returns
// nil.
func (jl *journal) append(rec journalRecord) error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.seq++
	rec.Schema = journalSchema
	rec.Seq = jl.seq
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := jl.f.Write(append(b, '\n')); err != nil {
		return err
	}
	return jl.f.Sync()
}

func (jl *journal) close() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.f.Close()
}

// replayJournal parses a journal stream, tolerating a damaged tail: a
// SIGKILL (or torn sector) can leave the final append half-written, so
// the first line that is not a well-formed record ends the trusted
// prefix, and everything from there on is dropped and counted rather
// than trusted. Records before the damage are always recovered.
func replayJournal(r io.Reader) (recs []journalRecord, droppedTail int) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Schema != journalSchema || rec.Op == "" || rec.Job == "" {
			droppedTail++
			for sc.Scan() {
				droppedTail++
			}
			return recs, droppedTail
		}
		recs = append(recs, rec)
	}
	if sc.Err() != nil {
		// An oversized or unreadable tail line; the prefix stands.
		droppedTail++
	}
	return recs, droppedTail
}

// replayedJob is one job's journal history folded to its latest state.
type replayedJob struct {
	id, tenant, specHash string
	spec                 scenario.Spec
	attempts             int    // attempts already consumed (interrupted ones count)
	op                   string // last op seen
	seq                  int64  // seq of that op, for terminal ordering
	resultHash           string
	detail               string
}

// foldJournal reduces a replayed record stream to per-job state, in
// first-submission order. Records for jobs with no submit record (only
// possible in a hand-damaged or fuzzed journal) are ignored: without
// the spec there is nothing to run and nothing to report.
func foldJournal(recs []journalRecord) []*replayedJob {
	byID := make(map[string]*replayedJob)
	var order []*replayedJob
	for _, rec := range recs {
		switch rec.Op {
		case opSubmit:
			if rec.Spec == nil || byID[rec.Job] != nil {
				continue
			}
			rj := &replayedJob{
				id: rec.Job, tenant: rec.Tenant, specHash: rec.SpecHash,
				spec: *rec.Spec, attempts: rec.Attempt, op: opSubmit, seq: rec.Seq,
			}
			byID[rec.Job] = rj
			order = append(order, rj)
		case opStart, opRetry:
			if rj := byID[rec.Job]; rj != nil && !isTerminalOp(rj.op) {
				rj.op, rj.seq = rec.Op, rec.Seq
				if rec.Attempt > rj.attempts {
					rj.attempts = rec.Attempt
				}
			}
		case opDone, opFail, opCancel:
			if rj := byID[rec.Job]; rj != nil && !isTerminalOp(rj.op) {
				rj.op, rj.seq = rec.Op, rec.Seq
				rj.resultHash = rec.ResultHash
				rj.detail = rec.Detail
			}
		}
	}
	return order
}

func isTerminalOp(op string) bool {
	return op == opDone || op == opFail || op == opCancel
}

// jobIDNum extracts the numeric suffix of a "j-000123" job ID (0 when
// the ID is foreign, which only a tampered journal can produce).
func jobIDNum(id string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "j-"), 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// recovery is the outcome of replaying a journal at startup.
type recovery struct {
	finished []*replayedJob // terminal jobs to re-register, finish order
	pending  []*replayedJob // jobs to re-enqueue, submission order
	maxID    int64          // highest job ID seen (pruned jobs included)
	dropped  int            // damaged tail lines discarded by the replayer
}

// recoverJournal replays the journal at path (a missing file is an
// empty history), folds it against the result store, prunes terminal
// jobs beyond keepFinished, rewrites the journal compacted, and returns
// the recovered state plus the open journal to append to.
//
// A job whose last record is non-terminal was accepted but never
// finished — the previous incarnation crashed with it queued or
// running — so it comes back as pending. A done job whose stored result
// no longer verifies against its journaled result hash (missing,
// evicted, or quarantined by ResultStore.Get) also comes back as
// pending: determinism makes re-running it produce the identical bytes.
func recoverJournal(path string, results *ResultStore, keepFinished int) (*journal, *recovery, error) {
	rec := &recovery{}
	if f, err := os.Open(path); err == nil {
		recs, dropped := replayJournal(f)
		f.Close()
		rec.dropped = dropped
		for _, rj := range foldJournal(recs) {
			if n := jobIDNum(rj.id); n > rec.maxID {
				rec.maxID = n
			}
			switch {
			case rj.op == opDone:
				if verifyStoredResult(results, rj.specHash, rj.resultHash) {
					rec.finished = append(rec.finished, rj)
				} else {
					rec.pending = append(rec.pending, rj)
				}
			case isTerminalOp(rj.op):
				rec.finished = append(rec.finished, rj)
			default:
				rec.pending = append(rec.pending, rj)
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}

	sort.Slice(rec.finished, func(i, j int) bool { return rec.finished[i].seq < rec.finished[j].seq })
	if keepFinished > 0 && len(rec.finished) > keepFinished {
		rec.finished = rec.finished[len(rec.finished)-keepFinished:]
	}

	// Compact: one submit record per retained job (attempts folded in),
	// then the terminal records in finish order, so the next replay
	// rebuilds the same registration and the same finished ordering
	// without rereading the previous incarnation's full history.
	var buf bytes.Buffer
	var seq int64
	add := func(r journalRecord) error {
		seq++
		r.Schema, r.Seq = journalSchema, seq
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		buf.Write(append(b, '\n'))
		return nil
	}
	for _, rj := range append(append([]*replayedJob(nil), rec.finished...), rec.pending...) {
		spec := rj.spec
		if err := add(journalRecord{
			Op: opSubmit, Job: rj.id, Tenant: rj.tenant,
			SpecHash: rj.specHash, Spec: &spec, Attempt: rj.attempts,
		}); err != nil {
			return nil, nil, err
		}
	}
	for _, rj := range rec.finished {
		if err := add(journalRecord{
			Op: rj.op, Job: rj.id, ResultHash: rj.resultHash, Detail: rj.detail,
		}); err != nil {
			return nil, nil, err
		}
	}
	if err := store.WriteFileAtomic(path, buf.Bytes()); err != nil {
		return nil, nil, fmt.Errorf("compacting journal: %w", err)
	}
	jl, err := openJournal(path)
	if err != nil {
		return nil, nil, err
	}
	jl.seq = seq
	return jl, rec, nil
}

// verifyStoredResult reports whether the result store still holds bytes
// for specHash that hash to resultHash. Get itself verifies the bytes
// against the stored content address (quarantining on mismatch); the
// extra comparison pins them to the hash the journal promised.
func verifyStoredResult(results *ResultStore, specHash, resultHash string) bool {
	if results == nil || resultHash == "" {
		return false
	}
	b, ok := results.Get(specHash)
	return ok && hashBytes(b) == resultHash
}
