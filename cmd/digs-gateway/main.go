// Command digs-gateway is the fault-tolerant front tier over a fleet of
// digs-server backends: one address that routes scenario submissions by
// rendezvous hashing on the spec's content address with R-way replica
// placement, probes every backend's readiness, trips per-backend
// circuit breakers, fails work over to surviving replicas, hedges slow
// reads, and read-repairs under-replicated results.
//
//	digs-server -addr :8081 -name b0 -data /var/lib/digs/b0 &
//	digs-server -addr :8082 -name b1 -data /var/lib/digs/b1 &
//	digs-server -addr :8083 -name b2 -data /var/lib/digs/b2 &
//	digs-gateway -addr :8080 \
//	    -backends http://localhost:8081,http://localhost:8082,http://localhost:8083
//
// Clients speak the ordinary digs-server API to the gateway and cannot
// tell the replicated tier from one durable process — killing any
// single backend costs a failover, never an error.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/digs-net/digs/internal/gateway"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "digs-gateway:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	backends := flag.String("backends", "", "comma-separated digs-server base URLs (required)")
	replicas := flag.Int("replicas", 2, "replica placement factor R: backends per spec")
	probe := flag.Duration("probe", 500*time.Millisecond, "readiness probe interval")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "readiness probe timeout")
	brFailures := flag.Int("breaker-failures", 3, "consecutive errors that trip a backend's breaker")
	brOpen := flag.Duration("breaker-open", 2*time.Second, "open-breaker cooldown before the half-open trial")
	submitRetries := flag.Int("submit-retries", 12,
		"total backend attempts one submission may consume across failover and backoff")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "per-backend API call timeout")
	flag.Parse()

	if *backends == "" {
		return fmt.Errorf("-backends is required (comma-separated digs-server URLs)")
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	gw, err := gateway.New(gateway.Config{
		Backends:        urls,
		Replicas:        *replicas,
		ProbeInterval:   *probe,
		ProbeTimeout:    *probeTimeout,
		BreakerFailures: *brFailures,
		BreakerOpenFor:  *brOpen,
		SubmitRetries:   *submitRetries,
		RequestTimeout:  *reqTimeout,
	})
	if err != nil {
		return err
	}
	defer gw.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: gw.Handler()}
	log.Printf("digs-gateway listening on %s (backends=%d replicas=%d probe=%v)",
		ln.Addr(), len(urls), *replicas, *probe)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	log.Printf("digs-gateway stopped")
	return nil
}
