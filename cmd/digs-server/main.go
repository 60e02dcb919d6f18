// Command digs-server runs WSAN simulations as a service: an HTTP daemon
// that accepts JSON scenario specs, schedules them on a bounded worker
// pool with per-tenant quotas and queue backpressure, streams each job's
// telemetry over SSE, caches completed results in a content-addressed
// store and warm-starts near-identical scenarios from a snapshot pool.
//
//	digs-server -addr :8080 -data /var/lib/digs -workers 4
//
//	curl -s localhost:8080/v1/scenarios -d '{"topology":"testbed-a","seed":3}'
//	curl -N localhost:8080/v1/jobs/j-000001/stream
//	curl -s localhost:8080/v1/jobs/j-000001/result
//
// SIGINT/SIGTERM drain the server: in-flight simulations finish (up to
// -drain), queued jobs are canceled, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/digs-net/digs/internal/server"
	"github.com/digs-net/digs/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "digs-server:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = default 2)")
	queue := flag.Int("queue", 64, "job queue depth; a full queue answers 429 + Retry-After")
	quota := flag.Int("quota", 8, "max queued+running jobs per tenant (0 = unlimited)")
	maxNodes := flag.Int("max-nodes", 20000, "largest deployment accepted (413 above)")
	dataDir := flag.String("data", "digs-server-data",
		"data root: results/ (content-addressed store), warm/ (snapshot pool) and the job journal; empty disables all three")
	resultEntries := flag.Int("result-entries", 4096, "result store LRU budget (entries, 0 = unbounded)")
	warmEntries := flag.Int("warm-entries", 256, "warm pool LRU budget (snapshots, 0 = unbounded)")
	warmBytes := flag.Int64("warm-bytes", 1<<30, "warm pool LRU budget (bytes, 0 = unbounded)")
	finishedJobs := flag.Int("finished-jobs", 256,
		"how many finished jobs stay addressable for status/stream replay before being forgotten")
	drain := flag.Duration("drain", 2*time.Minute,
		"how long a shutdown waits for in-flight simulations before aborting them")
	name := flag.String("name", "",
		"backend instance name echoed as X-DiGS-Backend (multi-node tiers; empty = no header)")
	flag.Parse()

	srv, err := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		TenantQuota:    *quota,
		MaxNodes:       *maxNodes,
		DataDir:        *dataDir,
		ResultBudget:   store.Budget{MaxEntries: *resultEntries},
		WarmBudget:     store.Budget{MaxEntries: *warmEntries, MaxBytes: *warmBytes},
		FinishedJobCap: *finishedJobs,
		Name:           *name,
	})
	if err != nil {
		return fmt.Errorf("recovering server state: %w", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	log.Printf("digs-server listening on %s (workers=%d queue=%d quota=%d data=%q)",
		ln.Addr(), *workers, *queue, *quota, *dataDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	log.Printf("draining: in-flight jobs get %v, queued jobs cancel", *drain)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain deadline hit; in-flight jobs aborted: %v", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	log.Printf("digs-server stopped")
	return nil
}
