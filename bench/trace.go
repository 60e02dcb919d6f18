package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one harness-side interval around a call into a layer. Spans of
// one op share Op; Parent is the enclosing span's ID (0 for an op span).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) ns() int64 { return s.EndNs - s.StartNs }

// tracer records spans in memory from the single load-generating
// goroutine. A nil *tracer records nothing, so workloads run the same
// code traced and untraced.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setOp labels the spans that follow with the op's index.
func (t *tracer) setOp(i int) {
	if t != nil {
		t.op = i
	}
}

// record appends a span under the innermost open one and returns its ID.
func (t *tracer) record(layer, name string, start, end int64) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Layer: layer, Name: name,
		StartNs: start, EndNs: end})
	return id
}

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return 0
	}
	id := t.record(layer, name, int64(time.Since(t.t0)), 0)
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("bench: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].EndNs = int64(time.Since(t.t0))
}

// add records a span whose duration another process measured (the
// server's queued and run times from a job View) as a child of the
// innermost open span, ending where that span now stands.
func (t *tracer) add(layer, name string, d time.Duration) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.record(layer, name, now-int64(d), now)
}

// selfNs returns each span's duration minus its direct children's.
func (t *tracer) selfNs() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.ns()
		if s.Parent > 0 {
			self[s.Parent-1] -= s.ns()
		}
	}
	return self
}

// layerShare returns, over the spans inside op spans, the self time of
// the given layers as a share of the op spans' total time.
func (t *tracer) layerShare(layers ...string) float64 {
	want := map[string]bool{}
	for _, l := range layers {
		want[l] = true
	}
	self := t.selfNs()
	var in, total int64
	for i, s := range t.spans {
		if s.Layer == layerBench && s.Parent == 0 {
			total += s.ns()
		}
		if want[s.Layer] && t.insideOp(s) {
			in += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}

// insideOp reports whether the span descends from an op span.
func (t *tracer) insideOp(s span) bool {
	for s.Parent > 0 {
		s = t.spans[s.Parent-1]
	}
	return s.Layer == layerBench && s.Name == spanOp
}

// countInOps counts spans of the given layers inside op spans.
func (t *tracer) countInOps(layers ...string) int {
	want := map[string]bool{}
	for _, l := range layers {
		want[l] = true
	}
	n := 0
	for _, s := range t.spans {
		if want[s.Layer] && t.insideOp(s) {
			n++
		}
	}
	return n
}

// millis returns the durations, in ms, of the spans with that layer and
// name.
func (t *tracer) millis(layer, name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, float64(s.ns())/1e6)
		}
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string, host hostInfo) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(struct {
		Workload string   `json:"workload"`
		Host     hostInfo `json:"host"`
		Spans    []span   `json:"spans"`
	}{workload, host, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(blob, '\n'), 0o644)
}

// Layer names are the module names under internal/; layerBench is the
// harness itself, whose op spans are the roots.
const (
	layerBench    = "bench"
	layerTopology = "topology"
	layerScenario = "scenario"
	layerSim      = "sim"
	layerChaos    = "chaos"
	layerMetrics  = "metrics"
	layerSnapshot = "snapshot"
	layerStore    = "store"
	layerServer   = "server"
	layerGateway  = "gateway"

	spanOp = "op"
)
