// Package faultproxy is a fault-injecting TCP reverse proxy for
// exercising the gateway's failover matrix deterministically: it sits
// between the gateway and one backend and, on command, drops
// connections, blackholes them (accept, read, never answer — a network
// partition as the client experiences one), delays traffic, answers
// with injected 503s, or resets connections mid-response-body. The
// gateway's tests flip the faults at exact moments instead of hoping a
// real network misbehaves on cue.
package faultproxy

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is the proxy's current fault behavior.
type Mode int32

const (
	// Forward passes traffic through untouched.
	Forward Mode = iota
	// Drop refuses connections: accepted and closed immediately, the
	// way a dead process's OS answers with RST.
	Drop
	// Blackhole accepts connections and reads forever without ever
	// answering — a partition or a hung process; only the client's
	// timeout gets it out.
	Blackhole
	// Err503 answers every request with a canned HTTP 503 and closes.
	Err503
)

// Proxy is one fault-injecting listener in front of one backend.
type Proxy struct {
	target string
	ln     net.Listener

	mode       atomic.Int32
	latency    atomic.Int64 // nanoseconds added before the backend sees each connection
	resetAfter atomic.Int64 // >0: cut the backend->client copy after this many bytes

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  chan struct{}
}

// New starts a proxy on a kernel-assigned loopback port forwarding to
// target (a host:port). Close it when done.
func New(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		target: target,
		ln:     ln,
		conns:  map[net.Conn]struct{}{},
		done:   make(chan struct{}),
	}
	go p.accept()
	return p, nil
}

// Addr is the proxy's listen address (host:port).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL is the proxy's base URL.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// SetMode switches the fault behavior for all future connections.
// Existing connections are left alone — use CutConns to sever them,
// which is what a real partition does to established flows.
func (p *Proxy) SetMode(m Mode) { p.mode.Store(int32(m)) }

// SetLatency adds a fixed delay before each new connection reaches the
// backend (0 disables).
func (p *Proxy) SetLatency(d time.Duration) { p.latency.Store(int64(d)) }

// SetResetAfter arranges for every future backend response stream to be
// cut with a connection reset after n bytes (0 disables) — the mid-body
// failure that exposes clients who only check status codes.
func (p *Proxy) SetResetAfter(n int64) { p.resetAfter.Store(n) }

// Partition is Blackhole for new connections plus an immediate cut of
// every established one: the full partition experience. Mode switch and
// cut happen under the lock serve registers a connection under, so every
// accepted connection either is in the set being cut or sees Blackhole.
func (p *Proxy) Partition() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.SetMode(Blackhole)
	p.cutLocked()
}

// Heal restores transparent forwarding.
func (p *Proxy) Heal() { p.SetMode(Forward) }

// CutConns severs every established connection with RST.
func (p *Proxy) CutConns() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cutLocked()
}

func (p *Proxy) cutLocked() {
	for c := range p.conns {
		abort(c)
		delete(p.conns, c)
	}
}

// Close stops the listener and severs everything.
func (p *Proxy) Close() {
	close(p.done)
	p.ln.Close()
	p.CutConns()
}

// abort closes a TCP conn with linger 0 so the peer sees RST, not FIN —
// "connection reset by peer", the rudest failure shape.
func abort(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) accept() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.serve(c)
	}
}

const canned503 = "HTTP/1.1 503 Service Unavailable\r\n" +
	"Content-Type: application/json\r\n" +
	"Retry-After: 1\r\n" +
	"Connection: close\r\n" +
	"Content-Length: 32\r\n\r\n" +
	`{"error":"injected fault: 503"}` + "\n"

func (p *Proxy) serve(client net.Conn) {
	// Registered before anything can block (the latency wait, the dial), in
	// the same critical section that reads the mode: see Partition.
	p.mu.Lock()
	mode := Mode(p.mode.Load())
	p.conns[client] = struct{}{}
	p.mu.Unlock()
	defer p.untrack(client)

	switch mode {
	case Drop:
		abort(client)
		return
	case Blackhole:
		// Swallow bytes until the client gives up or the mode changes
		// out from under us (poll so a healed proxy releases the conn).
		buf := make([]byte, 4096)
		for Mode(p.mode.Load()) == Blackhole {
			client.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			if _, err := client.Read(buf); err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					continue
				}
				client.Close()
				return
			}
		}
		// Healed mid-connection: too late to replay the request; reset so
		// the client retries against the now-healthy path.
		abort(client)
		return
	case Err503:
		// Read a request's worth of bytes, answer 503, close.
		client.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 8192)
		client.Read(buf)
		client.Write([]byte(canned503))
		client.Close()
		return
	}

	if d := time.Duration(p.latency.Load()); d > 0 {
		select {
		case <-time.After(d):
		case <-p.done:
			abort(client)
			return
		}
	}
	upstream, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		abort(client)
		return
	}
	p.mu.Lock()
	_, live := p.conns[client]
	if live {
		p.conns[upstream] = struct{}{}
	}
	p.mu.Unlock()
	if !live {
		// Cut while we were dialling: the backend must not hear from it.
		upstream.Close()
		return
	}
	defer p.untrack(upstream)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		io.Copy(upstream, client)
		if tc, ok := upstream.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()
	go func() {
		defer wg.Done()
		if limit := p.resetAfter.Load(); limit > 0 {
			_, err := io.CopyN(client, upstream, limit)
			if err == nil {
				// Budget exhausted mid-body: reset both sides.
				abort(client)
				abort(upstream)
				return
			}
		} else {
			io.Copy(client, upstream)
		}
		if tc, ok := client.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()
	wg.Wait()
	client.Close()
	upstream.Close()
}

// String names the mode for logs.
func (m Mode) String() string {
	switch m {
	case Drop:
		return "drop"
	case Blackhole:
		return "blackhole"
	case Err503:
		return "err503"
	default:
		return "forward"
	}
}

// Fleet is a set of proxies, one per backend, for harnesses that stand
// a whole tier behind faults.
type Fleet struct {
	Proxies []*Proxy
}

// NewFleet builds one proxy per target.
func NewFleet(targets []string) (*Fleet, error) {
	f := &Fleet{}
	for _, t := range targets {
		p, err := New(t)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("faultproxy for %s: %w", t, err)
		}
		f.Proxies = append(f.Proxies, p)
	}
	return f, nil
}

// URLs returns the proxy-side base URLs in target order.
func (f *Fleet) URLs() []string {
	urls := make([]string, len(f.Proxies))
	for i, p := range f.Proxies {
		urls[i] = p.URL()
	}
	return urls
}

// Close closes every proxy.
func (f *Fleet) Close() {
	for _, p := range f.Proxies {
		p.Close()
	}
}
