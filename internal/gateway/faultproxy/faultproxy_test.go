package faultproxy_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/gateway/faultproxy"
	"github.com/digs-net/digs/internal/server"
)

// newUpstream is a plain HTTP server answering every request with body.
func newUpstream(t *testing.T, body []byte) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

func newProxy(t *testing.T, target string) *faultproxy.Proxy {
	t.Helper()
	p, err := faultproxy.New(target)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestForward(t *testing.T) {
	p := newProxy(t, newUpstream(t, []byte("through the proxy\n")))
	resp, err := http.Get(p.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(b) != "through the proxy\n" {
		t.Fatalf("forward: HTTP %d body %q", resp.StatusCode, b)
	}
}

func TestErr503(t *testing.T) {
	p := newProxy(t, newUpstream(t, []byte("ok")))
	p.SetMode(faultproxy.Err503)
	resp, err := http.Get(p.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("injected fault: HTTP %d, want 503", resp.StatusCode)
	}
	if ra := server.RetryAfter(resp.Header); ra != time.Second {
		t.Fatalf("injected 503 carries Retry-After %v, want 1s", ra)
	}
	var doc struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.Error == "" {
		t.Fatalf("injected 503 body not a JSON error document: %v", err)
	}
}

func TestDropRefusesConnections(t *testing.T) {
	p := newProxy(t, newUpstream(t, []byte("ok")))
	p.SetMode(faultproxy.Drop)
	if _, err := http.Get(p.URL()); err == nil {
		t.Fatal("dropped connection still produced an HTTP response")
	}
}

func TestBlackholeAndHeal(t *testing.T) {
	p := newProxy(t, newUpstream(t, []byte("alive\n")))
	p.SetMode(faultproxy.Blackhole)
	cl := &http.Client{Timeout: 300 * time.Millisecond}
	start := time.Now()
	if _, err := cl.Get(p.URL()); err == nil {
		t.Fatal("blackholed request answered")
	}
	if d := time.Since(start); d < 250*time.Millisecond {
		t.Fatalf("blackholed request failed in %v — it was refused, not blackholed", d)
	}
	p.Heal()
	resp, err := http.Get(p.URL())
	if err != nil {
		t.Fatalf("healed proxy still failing: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healed proxy: HTTP %d", resp.StatusCode)
	}
}

func TestResetMidBody(t *testing.T) {
	p := newProxy(t, newUpstream(t, bytes.Repeat([]byte("x"), 256<<10)))
	p.SetResetAfter(4096)
	resp, err := http.Get(p.URL())
	if err != nil {
		// The reset can land before the headers finish; that is a valid
		// mid-stream failure too.
		return
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Fatal("256KiB body read completely through a 4KiB reset budget")
	}
}

// TestPartitionCutsEstablished: a partition must sever in-flight
// streams, not just refuse new connections.
func TestPartitionCutsEstablished(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		w.Write([]byte("first chunk\n"))
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)

	p := newProxy(t, strings.TrimPrefix(ts.URL, "http://"))
	resp, err := http.Get(p.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 64)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("reading the first chunk: %v", err)
	}

	p.Partition()
	readErr := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(resp.Body)
		readErr <- err
	}()
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("stream ended cleanly across a partition")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("partition left the established stream hanging instead of resetting it")
	}
}

// TestPartitionCutsConnectionsStillDialling: a connection accepted in
// Forward mode that is still waiting out the latency (or dialling the
// backend) when the partition starts is part of the partition too. Left out
// of the cut it would come up afterwards and forward for as long as the
// client keeps it alive — which a keep-alive prober does.
func TestPartitionCutsConnectionsStillDialling(t *testing.T) {
	p := newProxy(t, newUpstream(t, []byte("ok")))
	p.SetLatency(200 * time.Millisecond)
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Let the proxy accept the connection while it still forwards; a
	// partition that wins this race blackholes it, which proves nothing.
	time.Sleep(50 * time.Millisecond)
	p.Partition()

	c.SetDeadline(time.Now().Add(2 * time.Second))
	io.WriteString(c, "GET / HTTP/1.1\r\nHost: backend\r\n\r\n") // fails on a connection already reset
	if answer, _ := io.ReadAll(c); len(answer) > 0 {
		t.Fatalf("a connection that was dialling when the partition began answered %q", answer)
	}
}
