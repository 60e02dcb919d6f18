package main

import (
	"testing"

	"github.com/digs-net/digs/internal/server"
	"github.com/digs-net/digs/internal/server/servertest"
)

// TestCrashLosesNoAcceptedJob holds the real binary to the crash-safety
// contract: SIGKILL — no drain, no journal close — in the middle of a
// submission burst, restart on the same data directory, and every job the
// dead process acknowledged still reaches done with result bytes that
// re-hash to its content address. One worker, so a backlog builds and the
// kill lands on queued and running jobs alike.
func TestCrashLosesNoAcceptedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns digs-server")
	}
	bin, dataDir := servertest.Build(t, "digs-server"), t.TempDir()
	start := func(workers string) *servertest.Proc {
		return servertest.Spawn(t, bin, "-addr", "127.0.0.1:0", "-data", dataDir,
			"-workers", workers, "-quota", "0", "-drain", "30s")
	}
	first := start("1")
	// Submissions the kill raced got no 202, so nothing was promised them.
	acked, _ := servertest.Burst(t, server.Client{Base: first.URL}, 12, 9000,
		func([]servertest.Acked) { first.Kill() })

	second := start("2")
	cl := server.Client{Base: second.URL}
	servertest.VerifyAcked(t, cl, acked)
	var st server.Stats
	if err := cl.Stats(&st); err != nil {
		t.Fatal(err)
	}
	if st.Recovered == 0 {
		t.Fatalf("restarted server recovered no pending jobs: the kill missed the in-flight window (%d acknowledged)", len(acked))
	}
	second.Term(t)
}
