package server

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		header []string // nil = absent
		want   time.Duration
	}{
		{nil, 0},
		{[]string{"soon"}, 0},
		{[]string{"-2"}, 0},
		{[]string{"0"}, 0},
		{[]string{" 3 "}, 3 * time.Second},
		{[]string{"99"}, 5 * time.Second},
	} {
		h := http.Header{}
		if tc.header != nil {
			h["Retry-After"] = tc.header
		}
		if got := RetryAfter(h); got != tc.want {
			t.Errorf("Retry-After %q: %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestClientSubmitBackpressure: a 429 is waited out and retried; a server
// that never stops pushing back gets its 429 handed to the caller once the
// budget is spent, as an answer and not as an error.
func TestClientSubmitBackpressure(t *testing.T) {
	for _, tc := range []struct {
		name      string
		pushbacks int64 // 429s before the 202; -1 = forever
		wantCode  int
		wantPosts int64
	}{
		{"twice-then-202", 2, http.StatusAccepted, 3},
		{"forever", -1, http.StatusTooManyRequests, submit429Retries + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel() // the waits are real time
			var posts atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if n := posts.Add(1); tc.pushbacks < 0 || n <= tc.pushbacks {
					w.Header().Set("Retry-After", "0")
					WriteError(w, http.StatusTooManyRequests, "queue full")
					return
				}
				WriteJSON(w, http.StatusAccepted, SubmitResponse{JobID: "j-000001", SpecHash: "h", Status: StatusQueued})
			}))
			defer ts.Close()
			start := time.Now()
			resp, err := Client{Base: ts.URL}.Submit(smallSpec(1))
			if err != nil {
				t.Fatal(err)
			}
			if resp.Code != tc.wantCode || posts.Load() != tc.wantPosts {
				t.Fatalf("HTTP %d after %d POSTs, want %d after %d", resp.Code, posts.Load(), tc.wantCode, tc.wantPosts)
			}
			if floor := time.Duration(tc.wantPosts-1) * 100 * time.Millisecond; time.Since(start) < floor {
				t.Fatalf("returned after %v: the 100 ms floor under a zero hint was not waited out (%v)", time.Since(start), floor)
			}
			if tc.wantCode == http.StatusAccepted && resp.JobID != "j-000001" {
				t.Fatalf("202 decoded as %+v", resp)
			}
			if tc.wantCode == http.StatusTooManyRequests && resp.Error != "queue full" {
				t.Fatalf("429 decoded as %+v", resp)
			}
		})
	}
}

// TestClientFollow drives the one SSE reader over canned streams: every
// event kind the server and the gateway emit, and the three ways a stream
// can fail to be one.
func TestClientFollow(t *testing.T) {
	const done = `event: done` + "\n" + `data: {"job_id":"g-000001","spec_hash":"h","tenant":"","status":"done","warm_start":false,"result_hash":"r","queued_ms":0}` + "\n\n"
	for _, tc := range []struct {
		name, contentType, body string
		want                    Stream // Done compared by job ID only
		wantErr                 string
	}{
		{name: "lines-gaps-failover", contentType: "text/event-stream",
			body: "data: l0\n\nevent: dropped\ndata: 3\n\ndata: l4\n\nevent: failover\ndata: http://b0\n\n" +
				"event: dropped\ndata: 2\n\ndata: l7\n\n" + done,
			want: Stream{Lines: []string{"l0", "l4", "l7"}, Dropped: 5, Failovers: 1, Done: &View{JobID: "g-000001"}}},
		{name: "indeterminate-gap", contentType: "text/event-stream",
			body: "event: dropped\ndata: -1\n\n" + done,
			want: Stream{Indeterminate: true, Done: &View{JobID: "g-000001"}}},
		{name: "error-event", contentType: "text/event-stream",
			body:    "data: l0\n\nevent: error\ndata: no replica can serve the stream\n\n",
			want:    Stream{Lines: []string{"l0"}},
			wantErr: "no replica can serve the stream"},
		{name: "missing-done", contentType: "text/event-stream",
			body:    "data: l0\n\ndata: l1\n\n",
			want:    Stream{Lines: []string{"l0", "l1"}},
			wantErr: "without a done event"},
		{name: "not-an-event-stream", contentType: "application/json",
			body:    `{"error":"no such job"}` + "\n",
			wantErr: "content type"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", tc.contentType)
				fmt.Fprint(w, tc.body)
			}))
			defer ts.Close()
			var calls []int
			got, err := Client{Base: ts.URL}.Follow("g-000001", func(n int) { calls = append(calls, n) })
			if (err == nil) != (tc.wantErr == "") || (err != nil && !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
			}
			if got == nil {
				got = &Stream{}
			}
			if fmt.Sprint(got.Lines) != fmt.Sprint(tc.want.Lines) || got.Dropped != tc.want.Dropped ||
				got.Indeterminate != tc.want.Indeterminate || got.Failovers != tc.want.Failovers {
				t.Fatalf("read %+v, want %+v", got, tc.want)
			}
			if (got.Done == nil) != (tc.want.Done == nil) || (got.Done != nil && got.Done.JobID != tc.want.Done.JobID) {
				t.Fatalf("done view %+v, want %+v", got.Done, tc.want.Done)
			}
			for i, n := range calls {
				if n != i+1 {
					t.Fatalf("per-line callback saw counts %v", calls)
				}
			}
			if len(calls) != len(got.Lines) {
				t.Fatalf("per-line callback ran %d times for %d lines", len(calls), len(got.Lines))
			}
		})
	}
}

// TestServiceClientWrittenOnce walks the repository's Go sources, tests
// included, and fails when anything outside this package grows its own
// piece of the service protocol again: a hand-built request
// (http.NewRequest, http.NewRequestWithContext), an SSE reader or writer
// (a literal that starts "event: " or "data: "), a Retry-After read or write (the
// header name passed to Get or Set), a hand-made submit (the /v1/scenarios
// path), or a private writeJSON, jitter or maxDur. The one exception is
// the gateway's route to its backends' submit endpoint.
func TestServiceClientWrittenOnce(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]string{
		"internal/gateway/gateway.go": "/v1/scenarios",
	}
	walked := 0
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			switch rel {
			case "bench", ".bench_build", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || filepath.ToSlash(filepath.Dir(rel)) == "internal/server" {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		walked++
		report := func(what string) {
			if allowed[rel] != what {
				t.Errorf("%s has %s: use server.Client.Do, server.EventReader, server.WriteEvent, "+
					"server.RetryAfter, server.SetRetryAfter, server.WriteJSON and server.Jitter", rel, what)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				switch n.Name.Name {
				case "writeJSON", "jitter", "maxDur":
					report("a func " + n.Name.Name)
				}
			case *ast.BasicLit:
				if n.Kind != token.STRING {
					break
				}
				val, _ := strconv.Unquote(n.Value)
				for _, prefix := range []string{"event: ", "data: "} {
					if strings.HasPrefix(val, prefix) {
						report(fmt.Sprintf("a %q literal", prefix))
					}
				}
				if strings.Contains(n.Value, "/v1/scenarios") {
					report("/v1/scenarios")
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "http" &&
					(sel.Sel.Name == "NewRequest" || sel.Sel.Name == "NewRequestWithContext") {
					report("a call of http." + sel.Sel.Name)
				}
				if (sel.Sel.Name == "Get" || sel.Sel.Name == "Set") && len(n.Args) > 0 {
					if lit, ok := n.Args[0].(*ast.BasicLit); ok && lit.Value == `"Retry-After"` {
						report(`"Retry-After" passed to ` + sel.Sel.Name)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if walked < 50 {
		t.Fatalf("source walk saw only %d files from %s", walked, root)
	}
}
