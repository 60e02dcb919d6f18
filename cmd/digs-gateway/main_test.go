package main

import (
	"fmt"
	"strings"
	"testing"

	"github.com/digs-net/digs/internal/gateway"
	"github.com/digs-net/digs/internal/server"
	"github.com/digs-net/digs/internal/server/servertest"
)

// TestBackendCrashBehindGateway runs the tier as real processes — three
// digs-servers (one worker each, so backlogs build) behind one digs-gateway
// at R=2 — and SIGKILLs the backend holding the most primary placements in
// the middle of a submission burst. A dead backend may cost failovers,
// never anything a client can see: zero surfaced errors, every
// acknowledged job done with verified bytes, and a tier that still shuts
// down cleanly.
func TestBackendCrashBehindGateway(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns digs-server and digs-gateway")
	}
	serverBin, gatewayBin := servertest.Build(t, "digs-server"), servertest.Build(t, "digs-gateway")
	backends := map[string]*servertest.Proc{}
	var urls []string
	for i := 0; i < 3; i++ {
		p := servertest.Spawn(t, serverBin, "-addr", "127.0.0.1:0", "-data", t.TempDir(),
			"-workers", "1", "-quota", "0", "-drain", "30s", "-name", fmt.Sprintf("b%d", i))
		backends[p.URL] = p
		urls = append(urls, p.URL)
	}
	gw := servertest.Spawn(t, gatewayBin, "-addr", "127.0.0.1:0", "-backends", strings.Join(urls, ","),
		"-replicas", "2", "-probe", "200ms", "-probe-timeout", "1s", "-request-timeout", "5s")
	cl := server.Client{Base: gw.URL}

	var victim string
	acked, surfaced := servertest.Burst(t, cl, 12, 9500, func([]servertest.Acked) {
		var st gateway.Stats
		if err := cl.Stats(&st); err != nil {
			t.Fatal(err)
		}
		most := int64(-1)
		for _, b := range st.Backends {
			if b.PrimaryJobs > most {
				victim, most = b.Name, b.PrimaryJobs
			}
		}
		// The kill must land on work, not on an idle spare: the victim's
		// own word that it holds unfinished jobs, taken just before it dies.
		servertest.AwaitBusy(t, victim)
		backends[victim].Kill()
	})
	if len(surfaced) > 0 {
		t.Fatalf("%d submissions surfaced errors through the gateway:\n  %s",
			len(surfaced), strings.Join(surfaced, "\n  "))
	}
	servertest.VerifyAcked(t, cl, acked)

	var st gateway.Stats
	if err := cl.Stats(&st); err != nil {
		t.Fatal(err)
	}
	for _, b := range st.Backends {
		if b.Name == victim && b.Ready {
			t.Fatalf("killed backend %s still marked ready", victim)
		}
	}
	// Replication counts as resubmits, so this catches only a tier that did
	// nothing at all; AwaitBusy is what proves the kill landed.
	if st.Failovers+st.Resubmits+st.ReadRepairs == 0 {
		t.Fatalf("the gateway never failed over, resubmitted or repaired: the kill hit nothing (%+v)", st)
	}

	gw.Term(t)
	for u, p := range backends {
		if u != victim {
			p.Term(t)
		}
	}
}
