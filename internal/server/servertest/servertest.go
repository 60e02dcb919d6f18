// Package servertest holds what the service tier's fault tests share:
// building and spawning the real binaries, the mid-burst fault schedule,
// and the zero-lost-jobs verification.
package servertest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/server"
)

// burstWindow is the measurement window of a burst job: long enough that a
// SIGKILL or partition at "half acknowledged" lands on jobs in flight, and
// that the burst outlasts the gateway's probe evicting the victim. When the
// simulator gets faster, this grows; the timeouts and probe settings do not.
const burstWindow = 4 * time.Minute

// Build compiles ./cmd/<name> into the test's temp dir and returns the
// binary's path.
func Build(t testing.TB, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/digs-net/digs/cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// Proc is a spawned digs-server or digs-gateway.
type Proc struct {
	URL string
	cmd *exec.Cmd
}

var listenLine = regexp.MustCompile(`listening on (\S+)[^\n]*\n`)

// procLog collects a child's stderr and reports the address of its
// "listening on <addr>" line once.
type procLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
}

func (l *procLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if l.addr != nil {
		if m := listenLine.FindSubmatch(l.buf.Bytes()); m != nil {
			l.addr <- string(m[1])
			l.addr = nil
		}
	}
	return len(p), nil
}

// Spawn starts bin with args and waits for it to log its listen address
// (pass -addr 127.0.0.1:0). The process is killed when the test ends, and
// its log is printed if the test failed.
func Spawn(t testing.TB, bin string, args ...string) *Proc {
	t.Helper()
	log := &procLog{addr: make(chan string, 1)}
	addr := log.addr
	cmd := exec.Command(bin, args...)
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	p := &Proc{cmd: cmd}
	t.Cleanup(func() {
		p.Kill()
		if t.Failed() {
			log.mu.Lock()
			t.Logf("%s %v:\n%s", filepath.Base(bin), args, log.buf.Bytes())
			log.mu.Unlock()
		}
	})
	select {
	case a := <-addr:
		p.URL = "http://" + a
	case <-time.After(15 * time.Second):
		t.Fatalf("%s never reported a listen address", bin)
	}
	return p
}

// Kill is SIGKILL: no drain, no journal close. Killing a process that has
// already exited is harmless.
func (p *Proc) Kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// Term is SIGTERM; the process must drain and exit 0.
func (p *Proc) Term(t testing.TB) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("%s exited uncleanly on SIGTERM: %v", p.URL, err)
	}
}

// Acked is one submission the service acknowledged with a 202.
type Acked struct{ JobID, SpecHash string }

// Burst fires n concurrent submissions (seeds seedBase..seedBase+n-1) at
// cl, runs fault on the calling goroutine, with the acknowledged half, the
// moment half of them are acknowledged, and returns every 202 plus a line
// for every submission that ended in anything but a 200 or a 202. Behind a
// gateway such a line is the bug; a lone server killed mid-burst never
// promised those anything.
func Burst(t testing.TB, cl server.Client, n int, seedBase int64, fault func(half []Acked)) (acked []Acked, surfaced []string) {
	t.Helper()
	var mu sync.Mutex
	var wg sync.WaitGroup
	halfAt := max(n/2, 1)
	reached := make(chan []Acked, 1) // one send, when len(acked) == halfAt
	for i := 0; i < n; i++ {
		seed := seedBase + int64(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := cl.Submit(scenario.Spec{
				Topology: "half-testbed-a", Protocol: "digs", Seed: seed,
				Period: scenario.Duration(2 * time.Second),
				Window: scenario.Duration(burstWindow),
			})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				surfaced = append(surfaced, fmt.Sprintf("seed %d: %v", seed, err))
			case resp.Code == http.StatusAccepted:
				acked = append(acked, Acked{resp.JobID, resp.SpecHash})
				if len(acked) == halfAt {
					reached <- append([]Acked(nil), acked...)
				}
			case resp.Code != http.StatusOK:
				surfaced = append(surfaced, fmt.Sprintf("seed %d: HTTP %d: %s", seed, resp.Code, resp.Error))
			}
		}()
	}
	select {
	case half := <-reached:
		fault(half)
	case <-time.After(30 * time.Second):
		t.Fatalf("burst never reached %d acknowledged jobs", halfAt)
	}
	wg.Wait()
	return acked, surfaced
}

// AwaitBusy returns once the backend at base (its own address, past any
// gateway or fault proxy) holds an accepted job it has not finished, and
// fails the test if it stays idle. A fault test calls it just before
// injecting its fault, which must land on work and not on an idle spare;
// the wait only covers a replica whose copy of the burst is still on its
// way.
func AwaitBusy(t testing.TB, base string) {
	t.Helper()
	var st server.Stats
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if err := (server.Client{Base: base}).Stats(&st); err != nil {
			t.Fatal(err)
		}
		if st.Submitted-st.CacheHits-st.DedupHits-st.RejectedQuota-st.RejectedQueue-
			st.Completed-st.Failed-st.Canceled > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend %s is idle at the moment of the fault (grow burstWindow): %+v", base, st)
		}
	}
}

// VerifyAcked demands what a 202 promises: every acknowledged job reaches
// done through cl, and the stored result bytes re-hash to the content
// address the job reports.
func VerifyAcked(t testing.TB, cl server.Client, acked []Acked) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for _, a := range acked {
		view, err := cl.Await(a.JobID, deadline)
		if err != nil {
			t.Fatalf("spec %s: %v", a.SpecHash, err)
		}
		if view.Status != server.StatusDone {
			t.Fatalf("job %s ended %s: %s", a.JobID, view.Status, view.Error)
		}
		code, body, _, err := cl.Get("/v1/results/" + a.SpecHash)
		if err != nil || code != http.StatusOK {
			t.Fatalf("job %s: stored result %s: HTTP %d, %v", a.JobID, a.SpecHash, code, err)
		}
		sum := sha256.Sum256(bytes.TrimSpace(body))
		if got := hex.EncodeToString(sum[:]); got != view.ResultHash {
			t.Fatalf("job %s: stored result hashes to %s, job reports %s", a.JobID, got, view.ResultHash)
		}
	}
}
