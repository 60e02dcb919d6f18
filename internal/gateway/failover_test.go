package gateway

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/gateway/faultproxy"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/server"
	"github.com/digs-net/digs/internal/server/servertest"
)

// faultedTier is a gateway over real backends, each behind its own
// fault proxy.
type faultedTier struct {
	g      *Gateway
	ts     *httptest.Server
	fleet  *faultproxy.Fleet
	direct []string // backend base URLs past the proxies, in fleet order
}

// proxyFor maps a gateway backend key (a proxy URL) to its proxy and to
// the backend's own URL behind it.
func (ft *faultedTier) proxyFor(t *testing.T, key string) (*faultproxy.Proxy, string) {
	t.Helper()
	for i, p := range ft.fleet.Proxies {
		if p.URL() == key {
			return p, ft.direct[i]
		}
	}
	t.Fatalf("no fault proxy for backend %s", key)
	return nil, ""
}

// Probe settings of the faulted tier; the eviction budget follows from them.
const (
	faultedProbeInterval = 100 * time.Millisecond
	faultedProbeTimeout  = 500 * time.Millisecond
)

// newFaultedTier stands up n backends behind fault proxies and a
// gateway tuned for fast fault detection.
func newFaultedTier(t *testing.T, n int) *faultedTier {
	t.Helper()
	ft := &faultedTier{}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ts := newBackendTS(t, fmt.Sprintf("b%d", i))
		ft.direct = append(ft.direct, ts.URL)
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	fleet, err := faultproxy.NewFleet(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	ft.fleet = fleet
	ft.g, ft.ts = newTestGateway(t, Config{
		Backends:        fleet.URLs(),
		Replicas:        2,
		ProbeInterval:   faultedProbeInterval,
		ProbeTimeout:    faultedProbeTimeout,
		BreakerFailures: 2,
		BreakerOpenFor:  500 * time.Millisecond,
		RequestTimeout:  2 * time.Second,
	})
	return ft
}

// TestFailoverMatrix partitions each replica rank mid-burst (new
// connections hang, established ones are reset) and demands the same
// outcome every time: the probe evicts the victim inside its budget, zero
// submission errors, every acknowledged job done with intact bytes, and the
// healed backend re-admitted.
func TestFailoverMatrix(t *testing.T) {
	for _, tc := range []struct {
		name       string
		victimRank int
	}{
		{"partition-primary", 0},
		{"partition-secondary", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ft := newFaultedTier(t, 3)
			cl := server.Client{Base: ft.ts.URL}
			var victim *backend
			var proxy *faultproxy.Proxy
			acked, surfaced := servertest.Burst(t, cl, 6, int64(20000+1000*tc.victimRank), func(half []servertest.Acked) {
				// Partition the chosen replica rank of the first acked job.
				replicas, _ := ft.g.replicaSet(half[0].SpecHash)
				victim = replicas[tc.victimRank]
				var direct string
				proxy, direct = ft.proxyFor(t, victim.key)
				// The partition must land on work, not on an idle spare: the
				// victim's own word, past the proxy, that it holds unfinished
				// jobs.
				servertest.AwaitBusy(t, direct)
				partitionedAt := time.Now()
				proxy.Partition()

				// Detection contract: one probe interval + timeout, plus
				// scheduling slack.
				budget := faultedProbeInterval + faultedProbeTimeout + 1500*time.Millisecond
				for victim.ready.Load() {
					st, opens := victim.br.snapshot()
					if st == stateOpen {
						break
					}
					if time.Since(partitionedAt) > budget {
						t.Fatalf("partitioned backend %s still routable after %v (ready=%v breaker=%v opens=%d probeErr=%q)",
							victim.key, budget, victim.ready.Load(), st, opens, victim.probeErr.Load())
					}
					time.Sleep(20 * time.Millisecond)
				}
				t.Logf("evicted in %v (budget %v)", time.Since(partitionedAt).Round(time.Millisecond), budget)
			})
			if len(surfaced) > 0 {
				t.Fatalf("%d submissions surfaced errors through the gateway:\n  %s",
					len(surfaced), strings.Join(surfaced, "\n  "))
			}
			servertest.VerifyAcked(t, cl, acked)
			// Replication counts as resubmits, so this catches only a tier
			// that did nothing at all; AwaitBusy is what proves the fault landed.
			if n := ft.g.failovers.Load() + ft.g.resubmits.Load() + ft.g.readRepairs.Load(); n == 0 {
				t.Fatal("the gateway never failed over, resubmitted or repaired: the partition hit nothing")
			}

			// Heal: a probe success is the breaker's half-open trial.
			proxy.Heal()
			for healedAt := time.Now(); ; time.Sleep(20 * time.Millisecond) {
				if st, _ := victim.br.snapshot(); victim.ready.Load() && st == stateClosed {
					break
				}
				if time.Since(healedAt) > 10*time.Second {
					t.Fatalf("healed backend %s was never re-admitted", victim.key)
				}
			}
		})
	}
}

// TestStreamFailoverReattach partitions the replica serving a live SSE
// stream and demands the stream keep going on a survivor: the client
// still reaches the done event, and the logical line accounting
// (delivered + reported-dropped) matches an uninterrupted reference
// stream — no duplicated and no silently lost telemetry.
func TestStreamFailoverReattach(t *testing.T) {
	ft := newFaultedTier(t, 3)

	// A longer window gives the stream time to be mid-flight when the
	// partition lands.
	spec := scenario.Spec{
		Topology: "half-testbed-a", Protocol: "digs", Seed: 31,
		Period: scenario.Duration(2 * time.Second),
		Window: scenario.Duration(120 * time.Second),
	}
	cl := server.Client{Base: ft.ts.URL}
	resp := mustSubmit(t, cl, spec)
	if resp.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.Code)
	}
	replicas, _ := ft.g.replicaSet(resp.SpecHash)
	primaryProxy, _ := ft.proxyFor(t, replicas[0].key)

	// Partition the stream's serving replica after a few lines arrive.
	live, err := cl.Follow(resp.JobID, func(n int) {
		if n == 5 {
			primaryProxy.Partition()
		}
	})
	if err != nil {
		t.Fatalf("stream across the partition: %v", err)
	}
	if live.Done.Status != server.StatusDone || live.Done.JobID != resp.JobID {
		t.Fatalf("done event %+v, want job %q done", live.Done, resp.JobID)
	}

	// Reference: heal and replay the whole stream uninterrupted.
	primaryProxy.Heal()
	ref, err := cl.Follow(resp.JobID, nil)
	if err != nil || ref.Done.Status != server.StatusDone {
		t.Fatalf("reference stream never reached done: %v", err)
	}
	if live.Done.ResultHash != ref.Done.ResultHash {
		t.Fatalf("result hash diverged across failover: %s vs %s", live.Done.ResultHash, ref.Done.ResultHash)
	}

	// Logical accounting: delivered + dropped must name every line once.
	// An indeterminate gap would mean the stream fell back to a stored
	// result — with eager replication a live replica must always exist
	// here, so exactness is required.
	if live.Indeterminate || ref.Indeterminate {
		t.Fatalf("stream reported an indeterminate gap (live=%v ref=%v), want exact accounting",
			live.Indeterminate, ref.Indeterminate)
	}
	liveTotal := len(live.Lines) + live.Dropped
	refTotal := len(ref.Lines) + ref.Dropped
	if liveTotal != refTotal {
		t.Fatalf("failover stream accounts for %d lines (%d delivered + %d dropped), reference for %d (%d + %d)",
			liveTotal, len(live.Lines), live.Dropped, refTotal, len(ref.Lines), ref.Dropped)
	}
	// Replicas are bit-identical, so the delivered suffixes must agree
	// line for line.
	n := len(live.Lines)
	if len(ref.Lines) < n {
		n = len(ref.Lines)
	}
	for i := 1; i <= n; i++ {
		if live.Lines[len(live.Lines)-i] != ref.Lines[len(ref.Lines)-i] {
			t.Fatalf("line %d from the end diverges across failover", i)
		}
	}
}

// probeOutcomes is how many outcomes the backend's breaker has recorded.
func probeOutcomes(b *backend) int {
	b.br.mu.Lock()
	defer b.br.mu.Unlock()
	return b.br.on
}

// TestSubmitFailsOverTransportError: the primary dies between two probes —
// its fault proxy starts refusing connections while the prober, on an
// hour-long interval, still holds it ready and its breaker is closed — so
// the submission is sent to it, fails in transport, and must land on the
// next candidate without the client seeing anything but the 202. (A primary
// the prober already knows is dead is skipped before any attempt: that is
// TestSubmitFailsOverDeadPrimary, which never reaches the transport-error
// branch.)
func TestSubmitFailsOverTransportError(t *testing.T) {
	const n = 2
	addrs := make([]string, n)
	for i := range addrs {
		s, err := server.New(server.Config{Workers: 2, DataDir: t.TempDir(), Name: fmt.Sprintf("b%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	fleet, err := faultproxy.NewFleet(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	g, ts := newTestGateway(t, Config{Backends: fleet.URLs(), Replicas: 1,
		ProbeInterval: time.Hour, ProbeTimeout: 10 * time.Second, BreakerFailures: 5})
	// Flip the fault only once the gateway has consumed every backend's one
	// probe answer: a probe still reading its answer through the proxy when
	// the connections are cut would mark the primary not ready. A probe's
	// outcome is the first its breaker records.
	deadline := time.Now().Add(10 * time.Second)
	for _, b := range g.backends {
		for probeOutcomes(b) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("backend %s was never probed", b.key)
			}
			time.Sleep(time.Millisecond)
		}
	}

	spec := testSpec(31)
	replicas, _ := g.replicaSet(specHash(t, spec))
	primary := replicas[0]
	for _, p := range fleet.Proxies {
		if p.URL() == primary.key {
			p.SetMode(faultproxy.Drop)
			p.CutConns() // the probe's keep-alive connection too
		}
	}
	if !primary.routable() {
		t.Fatal("the primary is already known dead: the submission would skip it without an attempt")
	}

	cl := server.Client{Base: ts.URL}
	resp := mustSubmit(t, cl, spec)
	if resp.Code != http.StatusAccepted {
		t.Fatalf("submit with the primary refusing connections: HTTP %d (%s), want 202 from the next candidate", resp.Code, resp.Error)
	}
	if got := g.failovers.Load(); got < 1 {
		t.Fatalf("failovers = %d after a submission that had to leave its primary", got)
	}
	if primary.failures.Load() < 1 || primary.primaries.Load() != 0 {
		t.Fatalf("the primary saw %d failed calls and acknowledged %d submissions; want the attempt made and lost",
			primary.failures.Load(), primary.primaries.Load())
	}
	awaitDone(t, cl, resp.JobID)
}

// awaitReplicasDone waits until every replica in the job's placement has
// acknowledged it and, asked past its proxy, reports it done.
func awaitReplicasDone(t *testing.T, ft *faultedTier, j *gwJob) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for _, b := range j.replicas {
		for j.ack(b) == "" {
			if time.Now().After(deadline) {
				t.Fatalf("replica %s never acknowledged job %s", b.key, j.ID)
			}
			time.Sleep(10 * time.Millisecond)
		}
		_, direct := ft.proxyFor(t, b.key)
		view, err := server.Client{Base: direct}.Await(j.ack(b), deadline)
		if err != nil {
			t.Fatal(err)
		}
		if view.Status != server.StatusDone {
			t.Fatalf("replica %s ended job %s %s", b.key, j.ID, view.Status)
		}
	}
}

// TestHedgedStatusRead: the replica a status read goes to first turns slow
// (every new connection to it waits 2 s), and the read must not wait for
// it: after the adaptive budget it is hedged to the other replica, which
// answers.
func TestHedgedStatusRead(t *testing.T) {
	ft := newFaultedTier(t, 2)
	cl := server.Client{Base: ft.ts.URL}
	resp := mustSubmit(t, cl, testSpec(61))
	if resp.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", resp.Code, resp.Error)
	}
	awaitDone(t, cl, resp.JobID)
	j := ft.g.jobByID(resp.JobID)
	awaitReplicasDone(t, ft, j)

	candidates := ft.g.readCandidates(j)
	slow, fast := candidates[0], candidates[1]
	proxy, _ := ft.proxyFor(t, slow.key)
	var before Stats
	if err := cl.Stats(&before); err != nil {
		t.Fatal(err)
	}
	proxy.SetLatency(2 * time.Second)
	proxy.CutConns() // the latency only applies to new connections
	defer proxy.SetLatency(0)

	start := time.Now()
	code, _, hdr, err := cl.Get("/v1/jobs/" + resp.JobID)
	took := time.Since(start)
	if err != nil || code != http.StatusOK {
		t.Fatalf("status read: HTTP %d (%v)", code, err)
	}
	if took >= 1500*time.Millisecond {
		t.Fatalf("status read took %v: it waited on the slow replica instead of hedging", took)
	}
	if got := hdr.Get(server.HeaderBackend); got != fast.key {
		t.Fatalf("status read answered by %q, want the hedge target %s", got, fast.key)
	}
	var after Stats
	if err := cl.Stats(&after); err != nil {
		t.Fatal(err)
	}
	if after.HedgedReads <= before.HedgedReads || after.HedgeWins <= before.HedgeWins {
		t.Fatalf("hedged_reads %d -> %d, hedge_wins %d -> %d: want both to grow",
			before.HedgedReads, after.HedgedReads, before.HedgeWins, after.HedgeWins)
	}
}

// TestReplicasServeReadsWithoutRerun asserts what R = 2 buys over R = 1:
// once replication has settled, losing a replica costs no re-run. Every
// job acknowledged before the partition is read back through the
// survivor, which already holds it, so the survivor's own submission
// count does not move while the reads run.
func TestReplicasServeReadsWithoutRerun(t *testing.T) {
	ft := newFaultedTier(t, 2)
	cl := server.Client{Base: ft.ts.URL}
	var acked []servertest.Acked
	for seed := int64(70); seed < 76; seed++ {
		resp := mustSubmit(t, cl, testSpec(seed))
		if resp.Code != http.StatusAccepted {
			t.Fatalf("submit seed %d: HTTP %d (%s)", seed, resp.Code, resp.Error)
		}
		acked = append(acked, servertest.Acked{JobID: resp.JobID, SpecHash: resp.SpecHash})
	}
	// Settled: every replica of every job holds it.
	for _, a := range acked {
		awaitReplicasDone(t, ft, ft.g.jobByID(a.JobID))
	}

	// Partition the first job's primary and wait until the probe evicts
	// it, so that reads go to the survivor first.
	replicas, _ := ft.g.replicaSet(acked[0].SpecHash)
	victim, survivor := replicas[0], replicas[1]
	proxy, _ := ft.proxyFor(t, victim.key)
	_, survivorURL := ft.proxyFor(t, survivor.key)
	proxy.Partition()
	for deadline := time.Now().Add(5 * time.Second); victim.ready.Load(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("partitioned backend %s was never evicted", victim.key)
		}
	}

	var before, after server.Stats
	if err := (server.Client{Base: survivorURL}).Stats(&before); err != nil {
		t.Fatal(err)
	}
	servertest.VerifyAcked(t, cl, acked)
	if err := (server.Client{Base: survivorURL}).Stats(&after); err != nil {
		t.Fatal(err)
	}
	if after.Submitted != before.Submitted {
		t.Fatalf("the survivor took %d submissions during the reads: jobs it should already hold were re-run",
			after.Submitted-before.Submitted)
	}
}
