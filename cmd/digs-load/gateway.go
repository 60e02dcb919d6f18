// Gateway-tier harnesses for digs-load: self-hosting a replicated
// gateway+backends tier for the bench and smoke, the -partition
// harness (blackhole one backend mid-burst behind the fault proxy and
// assert clean failover), and the -gateway -crash harness (SIGKILL a
// real backend process mid-burst and assert zero acknowledged jobs
// lost through the gateway).
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/digs-net/digs/internal/gateway"
	"github.com/digs-net/digs/internal/gateway/faultproxy"
	"github.com/digs-net/digs/internal/server"
)

// inprocBackend is one in-process digs-server on a loopback port.
type inprocBackend struct {
	srv  *server.Server
	hs   *http.Server
	addr string // host:port
}

func (b *inprocBackend) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	b.srv.Shutdown(ctx)
	b.hs.Shutdown(ctx)
}

// startInprocBackends stands up n digs-servers (b0..bN) on loopback
// ports, each with its own temp data dir.
func startInprocBackends(n, workers int) ([]*inprocBackend, error) {
	var backends []*inprocBackend
	fail := func(err error) ([]*inprocBackend, error) {
		for _, b := range backends {
			b.stop()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{
			Workers: workers,
			DataDir: mustTempDir(),
			Name:    fmt.Sprintf("b%d", i),
		})
		if err != nil {
			return fail(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Shutdown(context.Background())
			return fail(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		backends = append(backends, &inprocBackend{srv: srv, hs: hs, addr: ln.Addr().String()})
	}
	return backends, nil
}

// serveGateway puts a Gateway on a loopback port and returns its base
// URL plus a stopper.
func serveGateway(gw *gateway.Gateway) (stop func(), url string, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		return nil, "", err
	}
	hs := &http.Server{Handler: gw.Handler()}
	go hs.Serve(ln)
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		hs.Shutdown(ctx)
		gw.Close()
	}
	return stop, "http://" + ln.Addr().String(), nil
}

// selfHostGateway stands up the in-process replicated tier the bench
// and smoke run against in -gateway mode: opts.backends digs-servers
// plus a digs-gateway routing across them.
func selfHostGateway(opts options) (stop func(), url string, err error) {
	n := opts.backends
	if n < 1 {
		n = 1
	}
	backends, err := startInprocBackends(n, opts.workers)
	if err != nil {
		return nil, "", err
	}
	stopBackends := func() {
		for _, b := range backends {
			b.stop()
		}
	}
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = "http://" + b.addr
	}
	gw, err := gateway.New(gateway.Config{Backends: urls, Replicas: opts.replicas})
	if err != nil {
		stopBackends()
		return nil, "", err
	}
	stopGW, gwURL, err := serveGateway(gw)
	if err != nil {
		stopBackends()
		return nil, "", err
	}
	fmt.Fprintf(os.Stderr, "self-hosted gateway tier: %d backends, R=%d\n", n, opts.replicas)
	return func() { stopGW(); stopBackends() }, gwURL, nil
}

// gatewayStats fetches and decodes the gateway's /v1/stats document.
func gatewayStats(cl *client) (*gateway.Stats, error) {
	body, code, err := cl.getBytes("/v1/stats")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("gateway stats: HTTP %d", code)
	}
	var st gateway.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// backendStat picks one backend's entry out of the gateway stats.
func backendStat(st *gateway.Stats, key string) *gateway.BackendStats {
	for i := range st.Backends {
		if st.Backends[i].Name == key {
			return &st.Backends[i]
		}
	}
	return nil
}

// pickVictim returns the backend key holding the most primary
// placements — killing or partitioning it guarantees the fault lands
// on real work, not an idle spare.
func pickVictim(cl *client, candidates []string) (string, error) {
	st, err := gatewayStats(cl)
	if err != nil {
		return "", err
	}
	best, bestPrimaries := "", int64(-1)
	for _, key := range candidates {
		bs := backendStat(st, key)
		if bs == nil {
			continue
		}
		if bs.PrimaryJobs > bestPrimaries {
			best, bestPrimaries = key, bs.PrimaryJobs
		}
	}
	if best == "" {
		return "", fmt.Errorf("no candidate backend found in gateway stats")
	}
	return best, nil
}

// ackedJob is one submission the gateway acknowledged with 202.
type ackedJob struct{ jobID, specHash string }

// burstResult is what a gateway submission burst produced.
type burstResult struct {
	mu   sync.Mutex
	acc  []ackedJob
	errs []string
}

func (r *burstResult) acked() []ackedJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]ackedJob(nil), r.acc...)
}

func (r *burstResult) errors() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.errs...)
}

// runBurst fires jobs submissions at the gateway concurrently, using
// seeds seedBase..seedBase+jobs-1, and closes halfway once half of them
// are acknowledged — the moment the harness injects its fault. Every
// submission must come back 202 (or 200 from the cache): through a
// gateway, a failed submit IS the bug, so errors are recorded, not
// tolerated.
func runBurst(cl *client, jobs int, seedBase int64, halfway chan<- struct{}) (*burstResult, *sync.WaitGroup) {
	res := &burstResult{}
	halfAt := jobs / 2
	if halfAt < 1 {
		halfAt = 1
	}
	var once sync.Once
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cl.submit(benchSpec(seedBase+int64(i), harnessWindow))
			res.mu.Lock()
			defer res.mu.Unlock()
			switch {
			case err != nil:
				res.errs = append(res.errs, fmt.Sprintf("seed %d: %v", seedBase+int64(i), err))
			case resp.code == http.StatusAccepted:
				res.acc = append(res.acc, ackedJob{resp.JobID, resp.SpecHash})
				if len(res.acc) == halfAt {
					once.Do(func() { close(halfway) })
				}
			case resp.code == http.StatusOK:
				// Cache hit: already done, nothing to track.
			default:
				res.errs = append(res.errs, fmt.Sprintf("seed %d: HTTP %d: %s", seedBase+int64(i), resp.code, resp.Error))
			}
		}(i)
	}
	return res, &wg
}

// verifyAcked drives every acknowledged job to a terminal state through
// the gateway and checks the stored result bytes re-hash to the job's
// reported content address.
func verifyAcked(cl *client, acked []ackedJob, deadline time.Time) error {
	for _, a := range acked {
		view, err := cl.awaitTerminal(a.jobID, deadline)
		if err != nil {
			return fmt.Errorf("job %s (spec %s): %w", a.jobID, a.specHash, err)
		}
		if view.Status != server.StatusDone {
			return fmt.Errorf("job %s ended %s: %s", a.jobID, view.Status, view.Error)
		}
		body, code, err := cl.getBytes("/v1/results/" + a.specHash)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("job %s: stored result %s: HTTP %d", a.jobID, a.specHash, code)
		}
		sum := sha256.Sum256(bytes.TrimSpace(body))
		if got := hex.EncodeToString(sum[:]); got != view.ResultHash {
			return fmt.Errorf("job %s: stored result hashes to %s, job reports %s", a.jobID, got, view.ResultHash)
		}
	}
	return nil
}

// partitionHarness is the -gateway -partition mode: prove that a
// network partition of one backend mid-burst costs failovers, never
// errors.
//
//  1. Stand up opts.backends in-process digs-servers, each behind a
//     fault-injecting proxy, and a gateway routing across the proxies.
//  2. Fire a concurrent burst; the moment half is acknowledged,
//     blackhole the backend holding the most primary placements (new
//     connections hang, established ones are reset — a real partition).
//  3. The gateway's probe must evict the victim within one probe
//     interval + timeout; the burst must finish with zero submission
//     errors (429/503/timeouts absorbed by failover and retry budget).
//  4. Every acknowledged job must reach done through the gateway with
//     intact, correctly hashed result bytes.
//  5. Heal the partition; the probe must re-admit the backend.
func partitionHarness(opts options) error {
	n := opts.backends
	if n < 2 {
		n = 3
	}
	const (
		probeInterval = 150 * time.Millisecond
		probeTimeout  = 750 * time.Millisecond
	)

	backends, err := startInprocBackends(n, opts.workers)
	if err != nil {
		return err
	}
	defer func() {
		for _, b := range backends {
			b.stop()
		}
	}()
	addrs := make([]string, len(backends))
	for i, b := range backends {
		addrs[i] = b.addr
	}
	fleet, err := faultproxy.NewFleet(addrs)
	if err != nil {
		return err
	}
	defer fleet.Close()

	gw, err := gateway.New(gateway.Config{
		Backends:        fleet.URLs(),
		Replicas:        opts.replicas,
		ProbeInterval:   probeInterval,
		ProbeTimeout:    probeTimeout,
		BreakerFailures: 2,
		BreakerOpenFor:  time.Second,
		RequestTimeout:  2 * time.Second,
	})
	if err != nil {
		return err
	}
	stopGW, gwURL, err := serveGateway(gw)
	if err != nil {
		return err
	}
	defer stopGW()
	cl := newClient(gwURL, opts.reqTimeout)
	fmt.Fprintf(os.Stderr, "partition harness: %d backends behind fault proxies, R=%d\n", n, opts.replicas)

	halfway := make(chan struct{})
	res, wg := runBurst(cl, opts.crashJobs, 12000, halfway)
	select {
	case <-halfway:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("burst never reached half acknowledged")
	}

	victim, err := pickVictim(cl, fleet.URLs())
	if err != nil {
		return err
	}
	var proxy *faultproxy.Proxy
	for _, p := range fleet.Proxies {
		if p.URL() == victim {
			proxy = p
		}
	}
	if proxy == nil {
		return fmt.Errorf("no fault proxy for victim %s", victim)
	}
	partitionedAt := time.Now()
	proxy.Partition()
	fmt.Printf("partitioned %s mid-burst (most primary placements)\n", victim)

	// The prober must evict the victim within one interval + timeout
	// (plus scheduling slack): that is the gateway's detection contract.
	tripBudget := probeInterval + probeTimeout + 1500*time.Millisecond
	var tripped time.Duration
	for {
		st, err := gatewayStats(cl)
		if err != nil {
			return err
		}
		if bs := backendStat(st, victim); bs != nil && (!bs.Ready || bs.Breaker == "open") {
			tripped = time.Since(partitionedAt)
			break
		}
		if time.Since(partitionedAt) > tripBudget {
			return fmt.Errorf("partitioned backend still routable %v after the partition (budget %v)",
				time.Since(partitionedAt), tripBudget)
		}
		time.Sleep(25 * time.Millisecond)
	}
	fmt.Printf("probe evicted the partitioned backend in %v (budget %v)\n",
		tripped.Round(time.Millisecond), tripBudget)

	wg.Wait()
	if errs := res.errors(); len(errs) > 0 {
		return fmt.Errorf("%d submissions surfaced errors through the gateway:\n  %s",
			len(errs), strings.Join(errs, "\n  "))
	}
	acked := res.acked()
	if err := verifyAcked(cl, acked, time.Now().Add(2*time.Minute)); err != nil {
		return err
	}

	// Heal the partition: the probe must re-admit the backend (probe
	// success is the breaker's half-open trial).
	proxy.Heal()
	healedAt := time.Now()
	for {
		st, err := gatewayStats(cl)
		if err != nil {
			return err
		}
		if bs := backendStat(st, victim); bs != nil && bs.Ready && bs.Breaker == "closed" {
			break
		}
		if time.Since(healedAt) > 10*time.Second {
			return fmt.Errorf("healed backend was never re-admitted")
		}
		time.Sleep(50 * time.Millisecond)
	}
	st, err := gatewayStats(cl)
	if err != nil {
		return err
	}
	fmt.Printf("healed backend re-admitted in %v\n", time.Since(healedAt).Round(time.Millisecond))
	fmt.Printf("all %d acknowledged jobs done with verified results "+
		"(failovers %d, resubmits %d, 429 retries %d, shed %d)\n",
		len(acked), st.Failovers, st.Resubmits, st.Retried429, st.Shed)
	fmt.Println("partition harness: OK — zero submission errors across a mid-burst partition")
	return nil
}

// startGateway launches the digs-gateway binary over the given backend
// URLs on a kernel-assigned port.
func startGateway(bin string, backends []string, replicas int) (*serverProc, error) {
	return spawnListener(bin, "gateway", []string{
		"-addr", "127.0.0.1:0",
		"-backends", strings.Join(backends, ","),
		"-replicas", strconv.Itoa(replicas),
		"-probe", "200ms",
		"-probe-timeout", "1s",
		"-request-timeout", "5s",
	})
}

// gatewayCrashHarness is the -gateway -crash mode: prove that
// SIGKILLing a whole backend process mid-burst costs nothing a client
// can see.
//
//  1. Start opts.backends real digs-server processes (1 worker each, so
//     backlogs build) and a real digs-gateway over them.
//  2. Fire a concurrent burst at the gateway; the moment half is
//     acknowledged, SIGKILL the backend holding the most primary
//     placements.
//  3. The burst must finish with zero submission errors — failover and
//     the retry budget absorb the loss.
//  4. Every acknowledged job must reach done through the gateway, with
//     result bytes that re-hash to the job's reported content address
//     (served or re-replicated from the surviving replica).
//  5. The gateway and surviving backends must still shut down cleanly.
func gatewayCrashHarness(opts options) error {
	n := opts.backends
	if n < 2 {
		n = 3
	}
	serverBin, cleanupSrv, err := buildBinary(opts.serverBin, "./cmd/digs-server", "digs-server")
	if err != nil {
		return err
	}
	defer cleanupSrv()
	gatewayBin, cleanupGW, err := buildBinary(opts.gatewayBin, "./cmd/digs-gateway", "digs-gateway")
	if err != nil {
		return err
	}
	defer cleanupGW()

	var procs []*serverProc
	var urls []string
	killedKey := ""
	defer func() {
		for i, p := range procs {
			if p != nil && urls[i] != killedKey {
				p.kill()
			}
		}
	}()
	for i := 0; i < n; i++ {
		dataDir, err := os.MkdirTemp("", fmt.Sprintf("digs-gwcrash-b%d-", i))
		if err != nil {
			return err
		}
		defer os.RemoveAll(dataDir)
		sp, err := startServer(serverBin, dataDir, 1, "-name", fmt.Sprintf("b%d", i))
		if err != nil {
			return err
		}
		procs = append(procs, sp)
		urls = append(urls, sp.base)
	}
	gwProc, err := startGateway(gatewayBin, urls, opts.replicas)
	if err != nil {
		return err
	}
	gwClean := false
	defer func() {
		if !gwClean {
			gwProc.kill()
		}
	}()
	cl := newClient(gwProc.base, opts.reqTimeout)

	halfway := make(chan struct{})
	res, wg := runBurst(cl, opts.crashJobs, 9500, halfway)
	select {
	case <-halfway:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("burst never reached half acknowledged")
	}

	victim, err := pickVictim(cl, urls)
	if err != nil {
		return err
	}
	var victimProc *serverProc
	for i, u := range urls {
		if u == victim {
			victimProc = procs[i]
		}
	}
	victimProc.kill() // SIGKILL: no drain, no goodbye
	killedKey = victim
	fmt.Printf("SIGKILLed backend %s mid-burst (most primary placements)\n", victim)

	wg.Wait()
	if errs := res.errors(); len(errs) > 0 {
		return fmt.Errorf("%d submissions surfaced errors through the gateway:\n  %s",
			len(errs), strings.Join(errs, "\n  "))
	}
	acked := res.acked()
	fmt.Printf("burst done: %d jobs acknowledged, zero submission errors\n", len(acked))
	if err := verifyAcked(cl, acked, time.Now().Add(2*time.Minute)); err != nil {
		return err
	}

	st, err := gatewayStats(cl)
	if err != nil {
		return err
	}
	if bs := backendStat(st, victim); bs != nil && bs.Ready {
		return fmt.Errorf("killed backend %s still marked ready in gateway stats", victim)
	}
	fmt.Printf("all %d acknowledged jobs done with verified results "+
		"(failovers %d, resubmits %d, read repairs %d, hedged reads %d)\n",
		len(acked), st.Failovers, st.Resubmits, st.ReadRepairs, st.HedgedReads)

	// The tier must still die politely.
	if err := gwProc.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := gwProc.cmd.Wait(); err != nil {
		return fmt.Errorf("gateway exited uncleanly: %w", err)
	}
	gwClean = true
	for i, p := range procs {
		if urls[i] == killedKey {
			continue
		}
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		if err := p.cmd.Wait(); err != nil {
			return fmt.Errorf("backend %s exited uncleanly: %w", urls[i], err)
		}
		procs[i] = nil
	}
	fmt.Println("gateway crash harness: OK — a dead backend cost failovers, never errors")
	return nil
}
