// Command digs-load exercises a digs-server with a mixed workload and
// reports throughput and latency:
//
//	digs-load                              # self-host, load, print report
//	digs-load -url http://host:8080 -n 40  # hammer a remote server
//	digs-load -smoke                       # end-to-end smoke (ci)
//
// It is a load generator and a set of fault harnesses, not the repository's
// benchmark: measured, gated numbers come from bench/ (bash bench/run.sh,
// workload service-session).
//
// The load runs three request classes against the same server:
//
//	cold — never-seen scenarios: full formation + measurement window
//	warm — same deployments, longer window: formation restored from the
//	       server's warm pool, only the window simulates
//	dup  — byte-for-byte repeats: content-addressed cache hits, no
//	       simulation at all
//
// Latency is submit-to-result: the POST plus (for 202) following the
// job's SSE stream to its terminal event. The expected shape is
// dup ≪ warm < cold.
//
// -smoke runs the issue's end-to-end scenario instead: submit a small
// generated plant, follow the SSE stream to completion, verify the
// result hash and the content-addressed store round-trip, resubmit and
// demand a cache hit, and check the server result is bit-identical to an
// in-process run of the same spec.
//
// -crash runs the crash-safety harness: spawn a real digs-server
// process, SIGKILL it in the middle of a submission burst, restart it
// on the same data directory, and assert that every job the dead server
// acknowledged reaches a terminal state with intact, correctly hashed
// result bytes — zero accepted jobs lost.
//
// Backpressure (429 + Retry-After) is honored everywhere with a bounded
// retry budget, so the load numbers measure throughput rather than
// counting the server's own flow control as failures.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "digs-load:", err)
		os.Exit(1)
	}
}

type options struct {
	url        string
	n          int
	conc       int
	workers    int
	smoke      bool
	crash      bool
	serverBin  string
	crashJobs  int
	reqTimeout time.Duration
	gateway    bool
	backends   int
	replicas   int
	partition  bool
	gatewayBin string
}

func run() error {
	var opts options
	flag.StringVar(&opts.url, "url", "", "target server base URL (empty = self-host an in-process server)")
	flag.IntVar(&opts.n, "n", 24, "requests per class (cold, warm, dup)")
	flag.IntVar(&opts.conc, "conc", 2, "concurrent clients")
	flag.IntVar(&opts.workers, "workers", 2, "self-hosted server's worker pool size")
	flag.BoolVar(&opts.smoke, "smoke", false, "run the end-to-end smoke instead of the load")
	flag.BoolVar(&opts.crash, "crash", false,
		"run the crash-safety harness: SIGKILL a real digs-server mid-burst, restart, assert zero lost jobs")
	flag.StringVar(&opts.serverBin, "server-bin", "",
		"digs-server binary for -crash (empty = go build one into a temp dir)")
	flag.IntVar(&opts.crashJobs, "crash-jobs", 12, "burst size for -crash")
	flag.DurationVar(&opts.reqTimeout, "req-timeout", 30*time.Second,
		"per-request timeout for submit/status/stats calls (SSE streams are exempt)")
	flag.BoolVar(&opts.gateway, "gateway", false,
		"drive a digs-gateway tier over -backends digs-servers instead of one server")
	flag.IntVar(&opts.backends, "backends", 3, "backend count behind the gateway (-gateway modes)")
	flag.IntVar(&opts.replicas, "replicas", 2, "gateway replica placement factor (-gateway modes)")
	flag.BoolVar(&opts.partition, "partition", false,
		"with -gateway: partition one backend mid-burst via the fault proxy and assert clean failover")
	flag.StringVar(&opts.gatewayBin, "gateway-bin", "",
		"digs-gateway binary for -gateway -crash (empty = go build one into a temp dir)")
	flag.Parse()

	if opts.crash {
		if opts.gateway {
			return gatewayCrashHarness(opts)
		}
		return crashHarness(opts)
	}
	if opts.partition {
		if !opts.gateway {
			return fmt.Errorf("-partition requires -gateway")
		}
		return partitionHarness(opts)
	}

	base := opts.url
	if base == "" {
		var stop func()
		var url string
		var err error
		if opts.gateway {
			stop, url, err = selfHostGateway(opts)
		} else {
			stop, url, err = selfHost(opts.workers)
		}
		if err != nil {
			return err
		}
		defer stop()
		base = url
	}
	cl := newClient(base, opts.reqTimeout)

	if opts.smoke {
		return smoke(cl, opts.url == "")
	}
	rep, err := bench(cl, opts)
	if err != nil {
		return err
	}
	printReport(rep)
	return nil
}

// selfHost starts an in-process digs-server on a loopback port.
func selfHost(workers int) (stop func(), url string, err error) {
	srv, err := server.New(server.Config{
		Workers: workers,
		DataDir: mustTempDir(),
	})
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(ctx)
		hs.Shutdown(ctx)
	}
	return stop, "http://" + ln.Addr().String(), nil
}

func mustTempDir() string {
	d, err := os.MkdirTemp("", "digs-load-")
	if err != nil {
		panic(err)
	}
	return d
}

// client is a thin JSON/SSE client for the digs-server API.
//
// Two HTTP clients, on purpose: api carries a per-request timeout so a
// hung or partitioned backend can never stall a submit/status/stats
// call forever, while stream has no timeout — an SSE stream is supposed
// to stay open for the life of the job — and is bounded instead by a
// cancellable context (streamBudget end to end).
type client struct {
	base   string
	api    http.Client
	stream http.Client
	// streamBudget bounds one SSE follow end to end (default 5m).
	streamBudget time.Duration
	// retried429 counts submissions that were pushed back with 429 and
	// retried after the server's Retry-After hint — backpressure the
	// server designed in, not failures.
	retried429 atomic.Int64
}

// newClient builds a client whose non-streaming calls time out after
// reqTimeout (0 = 30s).
func newClient(base string, reqTimeout time.Duration) *client {
	if reqTimeout <= 0 {
		reqTimeout = 30 * time.Second
	}
	return &client{
		base:         base,
		api:          http.Client{Timeout: reqTimeout},
		streamBudget: 5 * time.Minute,
	}
}

type submitResp struct {
	code     int
	JobID    string          `json:"job_id"`
	SpecHash string          `json:"spec_hash"`
	Cached   bool            `json:"cached"`
	Dedup    bool            `json:"dedup"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
}

// max429Retries bounds how long a submission chases Retry-After hints
// before the backpressure is reported as a real error.
const max429Retries = 10

// submit posts the spec, honoring 429 + Retry-After with a bounded
// retry budget: a loaded queue or tenant quota is flow control, and
// counting it as failure would make the bench measure the limiter
// instead of the server.
func (c *client) submit(spec scenario.Spec) (*submitResp, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		resp, err := c.api.Post(c.base+"/v1/scenarios", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		out := &submitResp{code: resp.StatusCode}
		decErr := json.NewDecoder(resp.Body).Decode(out)
		hint := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if decErr != nil {
			return nil, fmt.Errorf("decoding %d response: %w", resp.StatusCode, decErr)
		}
		if out.code != http.StatusTooManyRequests || attempt >= max429Retries {
			return out, nil
		}
		c.retried429.Add(1)
		time.Sleep(retryAfterDelay(hint))
	}
}

// retryAfterDelay converts a Retry-After header into a wait, clamped to
// [100ms, 5s] so a malformed or hostile hint cannot stall the client.
func retryAfterDelay(hint string) time.Duration {
	d := time.Second
	if secs, err := strconv.Atoi(strings.TrimSpace(hint)); err == nil && secs >= 0 {
		d = time.Duration(secs) * time.Second
	}
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// followStream consumes the job's SSE stream until the terminal "done"
// event and returns the final job view plus the telemetry line count.
// The stream client carries no timeout (a live stream is not slow), but
// the whole follow runs under a cancellable deadline so a backend that
// hangs mid-stream cannot stall the bench forever.
func (c *client) followStream(jobID string) (*server.View, int, error) {
	budget := c.streamBudget
	if budget <= 0 {
		budget = 5 * time.Minute
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+jobID+"/stream", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.stream.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	event, lines := "message", 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "done" {
				var v server.View
				if err := json.Unmarshal([]byte(data), &v); err != nil {
					return nil, lines, err
				}
				return &v, lines, nil
			}
			if event == "message" {
				lines++
			}
		case line == "":
			event = "message"
		}
	}
	return nil, lines, fmt.Errorf("stream for %s ended without a done event (%v)", jobID, sc.Err())
}

// submitAndWait runs one request to its terminal state and returns the
// submit-to-result latency.
func (c *client) submitAndWait(spec scenario.Spec) (lat time.Duration, cached bool, err error) {
	start := time.Now()
	resp, err := c.submit(spec)
	if err != nil {
		return 0, false, err
	}
	switch resp.code {
	case http.StatusOK:
		return time.Since(start), true, nil
	case http.StatusAccepted:
		view, _, err := c.followStream(resp.JobID)
		if err != nil {
			return 0, false, err
		}
		if view.Status != server.StatusDone {
			return 0, false, fmt.Errorf("job %s: %s (%s)", resp.JobID, view.Status, view.Error)
		}
		return time.Since(start), false, nil
	default:
		return 0, false, fmt.Errorf("submit: HTTP %d: %s", resp.code, resp.Error)
	}
}

func (c *client) stats() (*server.Stats, error) {
	resp, err := c.api.Get(c.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// benchSpec is the workload scenario family: a 20-node testbed whose
// cold run is dominated by formation, so warm starts have real headroom.
// harnessWindow is the measurement window of the fault harnesses' burst
// jobs: long enough that a SIGKILL or partition at "half acknowledged" lands
// on jobs in flight, and that the burst outlasts the gateway's probe
// evicting the victim. When the simulator gets faster, this grows — the
// harnesses' timeouts and the tier's probe settings do not.
const harnessWindow = 4 * time.Minute

func benchSpec(seed int64, window time.Duration) scenario.Spec {
	return scenario.Spec{
		Topology: "half-testbed-a", Protocol: "digs", Seed: seed,
		Period: scenario.Duration(2 * time.Second),
		Window: scenario.Duration(window),
	}
}

// ClassReport is one request class's latency summary.
type ClassReport struct {
	Name     string
	Requests int
	MeanMs   float64
	P50Ms    float64
	P99Ms    float64
}

// Report is what one load run prints.
type Report struct {
	Workers     int
	Concurrency int
	TotalReqs   int
	WallS       float64
	ReqPerS     float64
	WarmHits    int64
	WarmHitRate float64
	CacheHits   int64
	Retried429  int64
	Classes     []ClassReport
}

// runClass pushes n requests of one class through conc clients and
// returns the sorted latencies in ms.
func runClass(cl *client, conc int, specs []scenario.Spec) ([]float64, error) {
	lats := make([]float64, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				lat, _, err := cl.submitAndWait(specs[i])
				lats[i], errs[i] = float64(lat)/float64(time.Millisecond), err
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	sort.Float64s(lats)
	return lats, nil
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func bench(cl *client, opts options) (*Report, error) {
	const coldWindow, warmWindow = 10 * time.Second, 15 * time.Second
	cold := make([]scenario.Spec, opts.n)
	warm := make([]scenario.Spec, opts.n)
	dup := make([]scenario.Spec, opts.n)
	for i := range cold {
		seed := int64(1000 + i)
		cold[i] = benchSpec(seed, coldWindow)
		// Same deployment and seed, longer window: shares the cold run's
		// formation snapshot but is a distinct scenario (no cache hit).
		warm[i] = benchSpec(seed, warmWindow)
		// Byte-identical resubmission: content-addressed cache hit.
		dup[i] = benchSpec(seed, coldWindow)
	}

	start := time.Now()
	classes := make([]ClassReport, 0, 3)
	for _, c := range []struct {
		name  string
		specs []scenario.Spec
	}{{"cold", cold}, {"warm", warm}, {"dup", dup}} {
		fmt.Fprintf(os.Stderr, "class %s: %d requests, conc %d\n", c.name, len(c.specs), opts.conc)
		lats, err := runClass(cl, opts.conc, c.specs)
		if err != nil {
			return nil, fmt.Errorf("class %s: %w", c.name, err)
		}
		classes = append(classes, ClassReport{
			Name: c.name, Requests: len(lats),
			MeanMs: mean(lats), P50Ms: quantile(lats, 0.5), P99Ms: quantile(lats, 0.99),
		})
	}
	wall := time.Since(start)

	st, err := cl.stats()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Workers:     opts.workers,
		Concurrency: opts.conc,
		TotalReqs:   3 * opts.n,
		WallS:       wall.Seconds(),
		ReqPerS:     float64(3*opts.n) / wall.Seconds(),
		WarmHits:    st.WarmHits,
		CacheHits:   st.CacheHits,
		Retried429:  cl.retried429.Load(),
		Classes:     classes,
	}
	if st.Completed > 0 {
		rep.WarmHitRate = float64(st.WarmHits) / float64(st.Completed)
	}

	// The warm pool must actually be doing its job, or the report is
	// advertising a feature that silently broke.
	if opts.gateway {
		// Behind the gateway, warm and cold specs hash differently and can
		// land on disjoint replica sets, so warm starts are opportunistic
		// there. The dup class still routes to its cold twin's replicas by
		// construction — the cache-hit contract survives the tier.
		if rep.CacheHits < int64(opts.n) {
			return nil, fmt.Errorf("only %d/%d dup-class requests hit the result cache through the gateway",
				rep.CacheHits, opts.n)
		}
		return rep, nil
	}
	if rep.WarmHits < int64(opts.n) {
		return nil, fmt.Errorf("only %d/%d warm-class requests warm-started", rep.WarmHits, opts.n)
	}
	if rep.CacheHits < int64(opts.n) {
		return nil, fmt.Errorf("only %d/%d dup-class requests hit the result cache", rep.CacheHits, opts.n)
	}
	if cw, ww := classMean(classes, "cold"), classMean(classes, "warm"); ww >= cw {
		return nil, fmt.Errorf("warm starts are not faster than cold runs (warm %.0f ms >= cold %.0f ms)", ww, cw)
	}
	return rep, nil
}

func classMean(cs []ClassReport, name string) float64 {
	for _, c := range cs {
		if c.Name == name {
			return c.MeanMs
		}
	}
	return 0
}

func printReport(r *Report) {
	fmt.Printf("=== digs-server load: %d requests in %.2fs (%.1f req/s, conc %d, workers %d) ===\n",
		r.TotalReqs, r.WallS, r.ReqPerS, r.Concurrency, r.Workers)
	for _, c := range r.Classes {
		fmt.Printf("  %-5s %3d reqs  mean %7.1f ms  p50 %7.1f ms  p99 %7.1f ms\n",
			c.Name, c.Requests, c.MeanMs, c.P50Ms, c.P99Ms)
	}
	fmt.Printf("  warm hits %d (rate %.2f), cache hits %d, 429 retries %d\n",
		r.WarmHits, r.WarmHitRate, r.CacheHits, r.Retried429)
}

// smoke is the end-to-end check `make server-smoke` runs: one small
// generated plant through the full submit → SSE → content-addressed
// result pipeline, with hash and cache-hit verification.
func smoke(cl *client, selfHosted bool) error {
	spec := scenario.Spec{
		Topology: "gen-plant-300-1", Protocol: "digs", Seed: 3,
		Window: scenario.Duration(20 * time.Second),
	}
	resp, err := cl.submit(spec)
	if err != nil {
		return err
	}
	if resp.code != http.StatusAccepted {
		return fmt.Errorf("submit: HTTP %d (%s)", resp.code, resp.Error)
	}
	fmt.Printf("submitted %s as job %s\n", resp.SpecHash, resp.JobID)

	view, lines, err := cl.followStream(resp.JobID)
	if err != nil {
		return err
	}
	if view.Status != server.StatusDone {
		return fmt.Errorf("job finished %s: %s", view.Status, view.Error)
	}
	if lines == 0 {
		return fmt.Errorf("SSE stream carried no telemetry")
	}
	sum := sha256.Sum256(view.Result)
	if got := hex.EncodeToString(sum[:]); got != view.ResultHash {
		return fmt.Errorf("result hash mismatch: sha256(result) %s != reported %s", got, view.ResultHash)
	}
	fmt.Printf("streamed %d telemetry lines; result %s verified\n", lines, view.ResultHash)

	// The content-addressed store must serve the same bytes.
	sr, err := cl.api.Get(cl.base + "/v1/results/" + resp.SpecHash)
	if err != nil {
		return err
	}
	stored := new(bytes.Buffer)
	stored.ReadFrom(sr.Body)
	sr.Body.Close()
	if sr.StatusCode != http.StatusOK {
		return fmt.Errorf("stored result: HTTP %d", sr.StatusCode)
	}
	if !bytes.Equal(bytes.TrimSpace(stored.Bytes()), bytes.TrimSpace(view.Result)) {
		return fmt.Errorf("stored result differs from the job's result")
	}

	// An identical resubmission is a cache hit, served without a job.
	again, err := cl.submit(spec)
	if err != nil {
		return err
	}
	if again.code != http.StatusOK || !again.Cached {
		return fmt.Errorf("resubmission: HTTP %d cached=%v, want a 200 cache hit", again.code, again.Cached)
	}
	if !bytes.Equal(bytes.TrimSpace(again.Result), bytes.TrimSpace(view.Result)) {
		return fmt.Errorf("cached result differs from the original")
	}
	fmt.Println("duplicate submission served from the content-addressed store")

	// CLI parity: the server's result must be bit-identical to running
	// the same spec in-process through the shared executor.
	if selfHosted {
		direct, _, err := scenario.RunSpec(context.Background(), spec, scenario.RunOpts{})
		if err != nil {
			return err
		}
		want, err := direct.Encode()
		if err != nil {
			return err
		}
		if !bytes.Equal(bytes.TrimSpace(view.Result), want) {
			return fmt.Errorf("server result differs from direct run:\nserver: %s\ndirect: %s",
				view.Result, want)
		}
		fmt.Println("server result bit-identical to the direct in-process run")
	}
	fmt.Println("server-smoke: OK")
	return nil
}

// serverProc is a real digs-server child process under harness control.
type serverProc struct {
	cmd  *exec.Cmd
	base string
}

func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// startServer launches the digs-server binary on a kernel-assigned port
// and waits for its "listening on" log line to learn the address. Extra
// args (e.g. -name) are appended to the baseline flag set.
func startServer(bin, dataDir string, workers int, extra ...string) (*serverProc, error) {
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-data", dataDir,
		"-workers", strconv.Itoa(workers),
		"-quota", "0",
		"-drain", "30s",
	}, extra...)
	return spawnListener(bin, "server", args)
}

// spawnListener launches a child process that reports its
// kernel-assigned address with a "listening on <addr>" stderr log line
// and waits for that line.
func spawnListener(bin, label string, args []string) (*serverProc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, "  ["+label+"]", line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				if f := strings.Fields(line[i+len("listening on "):]); len(f) > 0 {
					select {
					case addrCh <- f[0]:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &serverProc{cmd: cmd, base: "http://" + addr}, nil
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("%s never reported a listen address", label)
	}
}

// buildBinary compiles pkg into a temp dir, unless bin already names a
// prebuilt binary (then it is returned as-is with a no-op cleanup).
func buildBinary(bin, pkg, name string) (string, func(), error) {
	if bin != "" {
		return bin, func() {}, nil
	}
	dir, err := os.MkdirTemp("", "digs-bin-")
	if err != nil {
		return "", nil, err
	}
	out := filepath.Join(dir, name)
	fmt.Fprintf(os.Stderr, "building %s for the harness\n", name)
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		os.RemoveAll(dir)
		return "", nil, fmt.Errorf("building %s: %w", name, err)
	}
	return out, func() { os.RemoveAll(dir) }, nil
}

func (c *client) getBytes(path string) ([]byte, int, error) {
	resp, err := c.api.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// awaitTerminal polls the job's status endpoint until it reaches a
// terminal state. A 404 means the server forgot an accepted job — the
// exact failure the crash harness exists to catch.
func (c *client) awaitTerminal(jobID string, deadline time.Time) (*server.View, error) {
	for {
		body, code, err := c.getBytes("/v1/jobs/" + jobID)
		if err != nil {
			return nil, err
		}
		if code == http.StatusNotFound {
			return nil, fmt.Errorf("job lost: status endpoint answers 404 after restart")
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("status: HTTP %d", code)
		}
		var v server.View
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, err
		}
		switch v.Status {
		case server.StatusDone, server.StatusFailed, server.StatusCanceled:
			return &v, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("still %s at harness deadline", v.Status)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// crashHarness is the -crash mode: prove that SIGKILL — no drain, no
// journal close, mid-burst — loses nothing the server acknowledged.
//
//  1. Start a real digs-server (1 worker, so a backlog builds).
//  2. Submit a concurrent burst; the moment half the burst is
//     acknowledged with 202, SIGKILL the process.
//  3. Restart the server on the same data directory.
//  4. Every acknowledged job must reach done, its result bytes must
//     round-trip the content-addressed store and re-hash to the job's
//     reported content address, and the stats must show at least one
//     journal-recovered job (the kill really did interrupt work).
//  5. SIGTERM must still shut the restarted server down cleanly.
func crashHarness(opts options) error {
	dataDir, err := os.MkdirTemp("", "digs-crash-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	bin, cleanup, err := buildBinary(opts.serverBin, "./cmd/digs-server", "digs-server")
	if err != nil {
		return err
	}
	defer cleanup()

	sp, err := startServer(bin, dataDir, 1)
	if err != nil {
		return err
	}
	cl := newClient(sp.base, opts.reqTimeout)

	type acked struct{ jobID, specHash string }
	var (
		mu  sync.Mutex
		acc []acked
	)
	killAt := opts.crashJobs / 2
	if killAt < 1 {
		killAt = 1
	}
	killed := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < opts.crashJobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cl.submit(benchSpec(int64(9000+i), harnessWindow))
			if err != nil || resp.code != http.StatusAccepted {
				// The kill raced this submission: without a 202 in hand
				// the server never promised anything, so there is
				// nothing to assert.
				return
			}
			mu.Lock()
			acc = append(acc, acked{resp.JobID, resp.SpecHash})
			n := len(acc)
			mu.Unlock()
			if n == killAt {
				close(killed)
			}
		}(i)
	}
	select {
	case <-killed:
	case <-time.After(30 * time.Second):
		sp.kill()
		return fmt.Errorf("burst never reached %d accepted jobs", killAt)
	}
	sp.kill() // SIGKILL: no drain, no journal close, mid-burst
	wg.Wait()
	mu.Lock()
	accepted := append([]acked(nil), acc...)
	mu.Unlock()
	fmt.Printf("SIGKILLed the server holding %d acknowledged jobs\n", len(accepted))

	sp2, err := startServer(bin, dataDir, opts.workers)
	if err != nil {
		return fmt.Errorf("restart on the crashed data dir: %w", err)
	}
	clean := false
	defer func() {
		if !clean {
			sp2.kill()
		}
	}()
	cl2 := newClient(sp2.base, opts.reqTimeout)

	deadline := time.Now().Add(2 * time.Minute)
	for _, a := range accepted {
		view, err := cl2.awaitTerminal(a.jobID, deadline)
		if err != nil {
			return fmt.Errorf("job %s (spec %s): %w", a.jobID, a.specHash, err)
		}
		if view.Status != server.StatusDone {
			return fmt.Errorf("job %s ended %s after restart: %s", a.jobID, view.Status, view.Error)
		}
		body, code, err := cl2.getBytes("/v1/results/" + a.specHash)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("job %s: stored result %s: HTTP %d", a.jobID, a.specHash, code)
		}
		sum := sha256.Sum256(bytes.TrimSpace(body))
		if got := hex.EncodeToString(sum[:]); got != view.ResultHash {
			return fmt.Errorf("job %s: stored result hashes to %s, job reports %s",
				a.jobID, got, view.ResultHash)
		}
	}
	st, err := cl2.stats()
	if err != nil {
		return err
	}
	if st.Recovered == 0 {
		return fmt.Errorf("restarted server recovered no pending jobs — the kill missed the in-flight window")
	}
	fmt.Printf("all %d acknowledged jobs done with verified results (%d recovered from the journal, tail dropped %d)\n",
		len(accepted), st.Recovered, st.JournalDroppedTail)

	if err := sp2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := sp2.cmd.Wait(); err != nil {
		return fmt.Errorf("restarted server exited uncleanly: %w", err)
	}
	clean = true
	fmt.Println("crash harness: OK — zero accepted jobs lost")
	return nil
}
