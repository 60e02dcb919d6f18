package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/digs-net/digs/internal/gateway"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/server"
)

// serviceSizing sizes the service-session workload; the smoke test
// shrinks it.
type serviceSizing struct {
	Topology     string
	WarmSessions int // set-up sessions, so that setup_s is a second or more
	Ops          int // timed sessions
	Reads        int // (dup POST, result GET, status GET) triples per session
	CompareEvery int // every n-th session is compared with an in-process run
	LegSessions  int // sessions sent straight to the backend in the traced run
}

// sessionsPerSecond turns --seconds into a session count: a session takes
// about 40 ms on the 2-core host this was sized on.
const sessionsPerSecond = 25

// serviceDefault keeps the issue's mix of one cold run and one warm run to
// eight fetch triples: a guess, there being no production traffic, between
// the 1 : 1 : 1 that cmd/digs-load drives and a read-heavy mix.
func serviceDefault(seconds float64) serviceSizing {
	return serviceSizing{Topology: "half-testbed-a", WarmSessions: 30, Ops: opsFor(sessionsPerSecond, seconds),
		Reads: 8, CompareEvery: 25, LegSessions: 40}
}

// listener is one HTTP server on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close stops the server and waits for its accept loop to end.
func (l *listener) close() error {
	err := l.srv.Close()
	if serr := <-l.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// tier is the service under test: one backend with a fresh data
// directory behind one gateway, both on loopback.
type tier struct {
	dir     string
	backend *server.Server
	gw      *gateway.Gateway
	direct  *listener // the backend's own address
	front   *listener // the gateway's
}

func startTier(outDir string) (*tier, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "service-*")
	if err != nil {
		return nil, err
	}
	t := &tier{dir: dir}
	if t.backend, err = server.New(server.Config{DataDir: dir}); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if t.direct, err = listen(t.backend.Handler()); err == nil {
		t.gw, err = gateway.New(gateway.Config{Backends: []string{t.direct.url}})
	}
	if err == nil {
		t.front, err = listen(t.gw.Handler())
	}
	if err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// stop shuts the tier down front to back and removes its data directory.
func (t *tier) stop() error {
	var errs []error
	if t.front != nil {
		errs = append(errs, t.front.close())
	}
	if t.gw != nil {
		t.gw.Close()
	}
	if t.direct != nil {
		errs = append(errs, t.direct.close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs = append(errs, t.backend.Shutdown(ctx), os.RemoveAll(t.dir))
	return errors.Join(errs...)
}

// Request classes of a session, in issue order.
const (
	classCold   = "cold"
	classWarm   = "warm"
	classDup    = "dup"
	classRead   = "read"
	classStatus = "status"
)

// client is the single closed-loop caller.
type client struct {
	transport  *http.Transport
	api        http.Client // bounded calls
	stream     http.Client // SSE: bounded by its request's context
	retried429 int
	lines      int // telemetry lines seen on followed streams
	dropped    int // lines the streams reported dropped
	jobs       int // streams followed
}

func newClient() *client {
	t := &http.Transport{MaxIdleConnsPerHost: 4}
	return &client{transport: t, api: http.Client{Transport: t, Timeout: 30 * time.Second}, stream: http.Client{Transport: t}}
}

// do issues one bounded request and returns status and body.
func (c *client) do(method, url string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.api.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header, err
}

// submitResp is the union of the 202 and 200 submit bodies.
type submitResp struct {
	JobID    string          `json:"job_id"`
	SpecHash string          `json:"spec_hash"`
	Cached   bool            `json:"cached"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
}

// submit posts the spec, waiting out 429s as the server's Retry-After
// asks, a bounded number of times.
func (c *client) submit(base string, spec scenario.Spec) (int, *submitResp, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, nil, err
	}
	for attempt := 0; ; attempt++ {
		code, b, hdr, err := c.do(http.MethodPost, base+"/v1/scenarios", body)
		if err != nil {
			return 0, nil, err
		}
		if code == http.StatusTooManyRequests && attempt < 10 {
			c.retried429++
			secs, _ := strconv.Atoi(hdr.Get("Retry-After"))
			time.Sleep(time.Duration(max(secs, 1)) * time.Second)
			continue
		}
		var out submitResp
		if err := json.Unmarshal(b, &out); err != nil {
			return code, nil, fmt.Errorf("decoding %d submit response: %w", code, err)
		}
		return code, &out, nil
	}
}

// follow reads the job's SSE stream to its done event and returns the
// terminal view, which carries the result.
func (c *client) follow(base, jobID string) (*server.View, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+jobID+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.stream.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	c.jobs++
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	event := "message"
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "done":
				var v server.View
				if err := json.Unmarshal([]byte(data), &v); err != nil {
					return nil, fmt.Errorf("decoding done event: %w", err)
				}
				return &v, nil
			case "dropped":
				if n, err := strconv.Atoi(data); err == nil && n > 0 {
					c.dropped += n
				}
			case "message":
				c.lines++
			}
		case line == "":
			event = "message"
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("stream ended without a done event")
}

// sessionResult is what one session produced and how long each request
// class took.
type sessionResult struct {
	cold, warm *server.View
	ms         map[string][]float64
	// The cold job's time as the server saw it, and what is left of the
	// client's time: HTTP, journal, SSE.
	queuedMs, runMs, overheadMs []float64
}

// serviceSession is the service path: op = one session on a fresh seed.
type serviceSession struct {
	seed   int64
	size   serviceSizing
	outDir string

	t  *tier
	cl *client

	results    resultStats // of the pinned timed sessions' cold jobs
	lastDigest string
	kept       map[int][]byte // cold result bytes of every CompareEvery-th session
	viaGW      map[string][]float64
	viaGWOver  []float64 // the cold jobs' client time minus queued and run
}

func newServiceSession(seed int64, size serviceSizing, outDir string) *serviceSession {
	return &serviceSession{seed: seed, size: size, outDir: outDir}
}

func (s *serviceSession) ops() int { return s.size.Ops }

// spec is session i's spec: i follows opSeed's pinning.
func (s *serviceSession) spec(i int, window time.Duration) scenario.Spec {
	seed, _ := opSeed(s.seed, i)
	return scenario.Spec{
		Topology: s.size.Topology, Protocol: "digs", Seed: seed,
		Period: scenario.Duration(2 * time.Second), Window: scenario.Duration(window),
	}
}

func (s *serviceSession) setup(_ *tracer) error {
	if err := s.close(); err != nil {
		return err
	}
	*s = *newServiceSession(s.seed, s.size, s.outDir)
	s.kept = map[int][]byte{}
	s.viaGW = map[string][]float64{}
	var err error
	if s.t, err = startTier(s.outDir); err != nil {
		return err
	}
	s.cl = newClient()
	for k := 0; k < s.size.WarmSessions; k++ {
		if _, err := s.session(nil, s.t.front.url, -1-k); err != nil {
			return fmt.Errorf("warm-up session %d: %w", k, err)
		}
	}
	return nil
}

// session runs session i against base (the gateway, or the backend for
// the traced run's direct legs) and verifies every response.
func (s *serviceSession) session(tr *tracer, base string, i int) (*sessionResult, error) {
	layer := layerGateway
	if base == s.t.direct.url {
		layer = layerServer
	}
	out := &sessionResult{ms: map[string][]float64{}}
	// timed issues one request under a span of the tier's entry layer and
	// files its duration under the request class.
	timed := func(class string, fn func() error) error {
		id := tr.begin(layer, class)
		start := time.Now()
		err := fn()
		out.ms[class] = append(out.ms[class], msSince(start))
		tr.end(id)
		return err
	}
	run := func(class string, spec scenario.Spec) (*server.View, error) {
		var v *server.View
		err := timed(class, func() error {
			code, sub, err := s.cl.submit(base, spec)
			if err != nil {
				return err
			}
			if code != http.StatusAccepted {
				return fmt.Errorf("%s submit: HTTP %d %s", class, code, sub.Error)
			}
			if v, err = s.cl.follow(base, sub.JobID); err != nil {
				return fmt.Errorf("%s follow: %w", class, err)
			}
			// What the server itself measured, as children of this request.
			tr.add(layerServer, "queued", time.Duration(v.QueuedMs*float64(time.Millisecond)))
			tr.add(layerSim, "run", time.Duration(v.RunMs*float64(time.Millisecond)))
			v.JobID = sub.JobID
			return checkView(spec, v)
		})
		if err != nil {
			return nil, err
		}
		if class == classCold {
			out.queuedMs = append(out.queuedMs, v.QueuedMs)
			out.runMs = append(out.runMs, v.RunMs)
			out.overheadMs = append(out.overheadMs, out.ms[class][len(out.ms[class])-1]-v.QueuedMs-v.RunMs)
		}
		return v, nil
	}
	coldSpec := s.spec(i, 10*time.Second)
	var err error
	if out.cold, err = run(classCold, coldSpec); err != nil {
		return nil, err
	}
	if out.warm, err = run(classWarm, s.spec(i, 15*time.Second)); err != nil {
		return nil, err
	}
	if !out.warm.WarmStart {
		return nil, errors.New("warm job did not start from the warm pool")
	}
	coldBytes := []byte(out.cold.Result)
	dup := func() error {
		code, sub, err := s.cl.submit(base, coldSpec)
		if err != nil {
			return err
		}
		if code != http.StatusOK || !sub.Cached || !bytes.Equal(sub.Result, coldBytes) {
			return fmt.Errorf("dup submit: HTTP %d cached=%v, bytes equal=%v", code, sub.Cached, bytes.Equal(sub.Result, coldBytes))
		}
		return nil
	}
	read := func() error {
		code, b, _, err := s.cl.do(http.MethodGet, base+"/v1/results/"+out.cold.SpecHash, nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK || !bytes.Equal(bytes.TrimSpace(b), coldBytes) {
			return fmt.Errorf("result read: HTTP %d, bytes equal=%v", code, bytes.Equal(bytes.TrimSpace(b), coldBytes))
		}
		return nil
	}
	status := func() error {
		code, b, _, err := s.cl.do(http.MethodGet, base+"/v1/jobs/"+out.cold.JobID, nil)
		if err != nil {
			return err
		}
		var v server.View
		if err := json.Unmarshal(b, &v); err != nil || code != http.StatusOK || v.Status != server.StatusDone || v.ResultHash != out.cold.ResultHash {
			return fmt.Errorf("status read: HTTP %d status=%q (%v)", code, v.Status, err)
		}
		return nil
	}
	for k := 0; k < s.size.Reads; k++ {
		if err := errors.Join(timed(classDup, dup), timed(classRead, read), timed(classStatus, status)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkView verifies a done view against the spec it was submitted for.
func checkView(spec scenario.Spec, v *server.View) error {
	if v.Status != server.StatusDone {
		return fmt.Errorf("job ended %s: %s", v.Status, v.Error)
	}
	want, err := spec.Hash()
	if err != nil {
		return err
	}
	var res scenario.Result
	if err := json.Unmarshal(v.Result, &res); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	if res.SpecHash != want || v.SpecHash != want {
		return fmt.Errorf("result spec_hash %s, view %s, spec hashes to %s", res.SpecHash, v.SpecHash, want)
	}
	if h, err := res.HashResult(); err != nil || h != v.ResultHash {
		return fmt.Errorf("recomputed result hash %s, view says %s (%v)", h, v.ResultHash, err)
	}
	return nil
}

func (s *serviceSession) op(i int, tr *tracer) (int64, error) {
	out, err := s.session(tr, s.t.front.url, i)
	if err != nil {
		return 0, err
	}
	for class, ms := range out.ms {
		s.viaGW[class] = append(s.viaGW[class], ms...)
	}
	s.viaGWOver = append(s.viaGWOver, out.overheadMs...)
	var cold, warm scenario.Result
	if err := json.Unmarshal(out.cold.Result, &cold); err != nil {
		return 0, err
	}
	if err := json.Unmarshal(out.warm.Result, &warm); err != nil {
		return 0, err
	}
	if _, pinned := opSeed(s.seed, i); pinned {
		s.results.add(&cold)
	}
	if i == s.size.Ops-1 {
		s.lastDigest = out.warm.ResultHash
	}
	if i%s.size.CompareEvery == 0 {
		s.kept[i] = []byte(out.cold.Result)
	}
	// The cold job simulated everything up to its last slot; the warm one
	// restored the formation and simulated its window only.
	return cold.FinalSlot + warm.WindowSlots, nil
}

func (s *serviceSession) sim() simStats { return s.results.stats() }

func (s *serviceSession) digest() string { return s.lastDigest }

// verify compares the kept sessions' results with in-process runs.
func (s *serviceSession) verify() (int, []error) {
	var errs []error
	for i, want := range s.kept {
		res, _, err := scenario.RunSpec(context.Background(), s.spec(i, 10*time.Second), scenario.RunOpts{})
		if err != nil {
			errs = append(errs, fmt.Errorf("session %d in process: %w", i, err))
			continue
		}
		if got, _ := res.Encode(); !bytes.Equal(got, want) {
			errs = append(errs, fmt.Errorf("session %d: the service's result differs from an in-process RunSpec", i))
		}
	}
	return len(s.kept), errs
}

func (s *serviceSession) mark() {}

func (s *serviceSession) layers(tr *tracer, untraced, traced *loopResult) (map[string]float64, error) {
	m := map[string]float64{}

	// The same sessions straight to the backend: what the gateway adds is
	// the difference.
	direct := map[string][]float64{}
	var queued, run, over []float64
	for k := 0; k < s.size.LegSessions; k++ {
		out, err := s.session(tr, s.t.direct.url, 10_000_000+k)
		if err != nil {
			return nil, fmt.Errorf("direct session %d: %w", k, err)
		}
		for class, ms := range out.ms {
			direct[class] = append(direct[class], ms...)
		}
		queued = append(queued, out.queuedMs...)
		run = append(run, out.runMs...)
		over = append(over, out.overheadMs...)
	}
	for _, class := range []string{classCold, classWarm, classDup, classRead, classStatus} {
		m["server."+class+"_ms_p50"] = median(direct[class])
	}
	m["server.queued_ms_p50"] = median(queued)
	m["server.run_ms_p50"] = median(run)
	m["server.overhead_ms_p50"] = median(over)
	// The cold jobs differ in seed and so in run time; what is left of the
	// client's time once the server's own queued and run times are taken
	// off does not.
	m["gateway.hop_ms_p50"] = median(s.viaGWOver) - median(over)
	m["gateway.read_hop_ms_p50"] = median(s.viaGW[classRead]) - median(direct[classRead])

	var st server.Stats
	if err := s.getJSON(s.t.direct.url+"/v1/stats", &st); err != nil {
		return nil, err
	}
	var gst gateway.Stats
	if err := s.getJSON(s.t.front.url+"/v1/stats", &gst); err != nil {
		return nil, err
	}
	if st.Completed > 0 {
		// Half the completed jobs are warm submissions.
		m["server.warm_hit_ratio"] = float64(st.WarmHits) / (float64(st.Completed) / 2)
	}
	if st.Submitted > 0 {
		m["server.cache_hit_ratio"] = float64(st.CacheHits) / float64(st.Submitted)
	}
	m["server.retried_429"] = float64(s.cl.retried429)
	if s.cl.jobs > 0 {
		m["server.stream_lines_per_job"] = float64(s.cl.lines) / float64(s.cl.jobs)
	}
	m["server.stream_dropped"] = float64(s.cl.dropped)
	m["gateway.failovers"] = float64(gst.Failovers)
	m["gateway.hedges"] = float64(gst.HedgedReads)
	m["share.sim"] = tr.layerShare(layerSim)
	m["share.service"] = tr.layerShare(layerGateway, layerServer)

	// Snapshot and storage legs on the deployment the sessions use.
	topo, err := scenario.PickTopology(s.size.Topology)
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Build(scenario.Params{Topology: topo, TopologyName: s.size.Topology, Protocol: "digs", Seed: s.seed,
		Period: 2 * time.Second})
	if err != nil {
		return nil, err
	}
	if _, err := form(sc, topo.N(), formTimeout); err != nil {
		return nil, err
	}
	_, rt, err := roundTrip(tr, sc)
	if err != nil {
		return nil, err
	}
	maps.Copy(m, rt)
	dir, err := os.MkdirTemp(s.outDir, "service-legs-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	stor, err := storageLegs(tr, sc, dir)
	if err != nil {
		return nil, err
	}
	maps.Copy(m, stor)
	return m, nil
}

func (s *serviceSession) getJSON(url string, v any) error {
	code, b, _, err := s.cl.do(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, code)
	}
	return json.Unmarshal(b, v)
}

// minServiceShare is the least share of a session's time the service
// layers must take for the workload to be about them. It is well under
// the 0.19-0.28 measured at the 1 : 1 : 8 mix: the check catches a workload that
// stopped exercising the service, and leaves the mix to be chosen for what
// callers do.
const minServiceShare = 0.1

func (s *serviceSession) purity(_ *tracer, m map[string]float64) error {
	if sh := m["share.service"]; sh < minServiceShare {
		return fmt.Errorf("service-session: share.service %.3f, want >= %.2f", sh, minServiceShare)
	}
	return nil
}

func (s *serviceSession) close() error {
	if s.t == nil {
		return nil
	}
	s.cl.transport.CloseIdleConnections()
	err := s.t.stop()
	s.t = nil
	return err
}
