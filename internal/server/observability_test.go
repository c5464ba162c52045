package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mpcdist/internal/transport"
)

// promBody runs a warm-up query and returns the default /metrics body.
func promBody(t *testing.T, ts *httptest.Server) (string, *http.Response) {
	t.Helper()
	decodeAnswer(t, post(t, ts.URL+"/v1/distance",
		Query{Algo: "edit-mpc", A: "abcabcabcabcabcabcab", B: "abcabcXbcabcabcabYab", X: 0.25, Seed: 3}))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

func TestPrometheusExposition(t *testing.T) {
	ts := newTestServer(t, Config{})
	body, resp := promBody(t, ts)

	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want exposition format", ct)
	}

	// Every sample line must parse as `name{labels} value` with a matching
	// HELP/TYPE pair preceding the family.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE.+-]+$`)
	helpFor, typeFor := map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			helpFor[strings.Fields(rest)[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			typeFor[f[0]] = true
			if f[1] != "counter" && f[1] != "gauge" && f[1] != "histogram" {
				t.Errorf("unknown TYPE %q in %q", f[1], line)
			}
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}
	for _, name := range []string{
		"mpcserve_requests_total", "mpcserve_request_duration_seconds",
		"mpcserve_pool_size", "mpcserve_cache_hits_total", "mpcserve_mpc_runs_total",
	} {
		if !helpFor[name] || !typeFor[name] {
			t.Errorf("metric %s missing HELP/TYPE", name)
		}
	}

	// Histogram: cumulative buckets ending in +Inf == _count, and the edit-mpc
	// request must have landed in it.
	wantLines := []string{
		`mpcserve_requests_total 1`,
		`mpcserve_algo_requests_total{algo="edit-mpc"} 1`,
		`mpcserve_request_duration_seconds_count{algo="edit-mpc"} 1`,
		`mpcserve_request_duration_seconds_bucket{algo="edit-mpc",le="+Inf"} 1`,
		`mpcserve_mpc_runs_total{algo="edit-mpc"} 1`,
	}
	for _, want := range wantLines {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("exposition missing line %q", want)
		}
	}
	bucket := regexp.MustCompile(`mpcserve_request_duration_seconds_bucket\{algo="edit-mpc",le="[^"]+"\} (\d+)`)
	var prev int64 = -1
	for _, m := range bucket.FindAllStringSubmatch(body, -1) {
		v, err := strconv.ParseInt(m[1], 10, 64)
		if err != nil {
			t.Fatalf("bucket value %q: %v", m[1], err)
		}
		if v < prev {
			t.Errorf("bucket counts not cumulative: %d after %d", v, prev)
		}
		prev = v
	}
	if prev != 1 {
		t.Errorf("final bucket = %d, want 1", prev)
	}
}

// TestPhaseMetrics checks that phase attribution survives the whole wire
// path: the answer's report carries per-phase cells that sum to the run
// totals, and /metrics exposes per-(algo, phase) series in both formats.
func TestPhaseMetrics(t *testing.T) {
	ts := newTestServer(t, Config{})
	ans := decodeAnswer(t, post(t, ts.URL+"/v1/distance",
		Query{Algo: "edit-mpc", A: "abcabcabcabcabcabcab", B: "abcabcXbcabcabcabYab", X: 0.25, Seed: 3}))
	if ans.Report == nil || len(ans.Report.Phases) == 0 {
		t.Fatalf("answer report has no phases: %+v", ans.Report)
	}
	var ops, comm int64
	seen := map[string]bool{}
	for _, ph := range ans.Report.Phases {
		seen[ph.Phase] = true
		ops += ph.TotalOps
		comm += ph.CommWords
	}
	if !seen["candidates"] || !seen["chain"] {
		t.Errorf("phases %v, want candidates and chain present", seen)
	}
	if ops != ans.Report.TotalOps || comm != ans.Report.CommWords {
		t.Errorf("phase sums ops=%d comm=%d != report totals ops=%d comm=%d",
			ops, comm, ans.Report.TotalOps, ans.Report.CommWords)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`mpcserve_mpc_phase_rounds_total{algo="edit-mpc",phase="candidates"}`,
		`mpcserve_mpc_phase_total_ops_total{algo="edit-mpc",phase="chain"}`,
		`mpcserve_mpc_phase_comm_words_total{algo="edit-mpc",phase="candidates"}`,
		`mpcserve_mpc_phase_max_machines{algo="edit-mpc",phase="candidates"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing series %q", want)
		}
	}

	var snap Snapshot
	jr, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	if err := json.NewDecoder(jr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	st := snap.Algorithms["edit-mpc"]
	if st == nil || st.Phases["candidates"] == nil || st.Phases["candidates"].TotalOps <= 0 {
		t.Fatalf("JSON snapshot missing per-phase aggregation: %+v", st)
	}
}

func TestMetricsJSONFallback(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q, want application/json", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("json fallback did not decode: %v", err)
	}
	if snap.Pool.Size == 0 {
		t.Errorf("snapshot missing pool stats: %+v", snap.Pool)
	}
}

func TestInlineTrace(t *testing.T) {
	ts := newTestServer(t, Config{})
	q := Query{Algo: "ulam-mpc", ASeq: []int{1, 2, 3, 4, 5, 6, 7, 8}, BSeq: []int{2, 1, 3, 4, 5, 6, 8, 7}, X: 0.3, Seed: 1}

	a := decodeAnswer(t, post(t, ts.URL+"/v1/distance?trace=1", q))
	if len(a.Trace) == 0 {
		t.Fatal("trace=1 answer has no trace")
	}
	var file struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Trace, &file); err != nil {
		t.Fatalf("trace is not valid Chrome JSON: %v", err)
	}
	spans := 0
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("trace has no complete-event spans")
	}

	// Traced answers bypass the cache in both directions.
	b := decodeAnswer(t, post(t, ts.URL+"/v1/distance?trace=1", q))
	if b.Cached || len(b.Trace) == 0 {
		t.Fatalf("second traced answer cached=%v trace=%d bytes", b.Cached, len(b.Trace))
	}
	c := decodeAnswer(t, post(t, ts.URL+"/v1/distance", q))
	if c.Cached {
		t.Fatal("untraced query hit a cache entry written by a traced run")
	}
	if len(c.Trace) != 0 {
		t.Fatal("untraced answer carries a trace")
	}

	// Sequential algorithms have no cluster to trace.
	resp := post(t, ts.URL+"/v1/distance?trace=1", Query{Algo: "edit", A: "ab", B: "ba"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace on sequential algo: status %d, want 400", resp.StatusCode)
	}
}

// syncBuffer lets the handler goroutines and the test read the log safely.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRequestIDAndLogging(t *testing.T) {
	var logBuf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	ts := httptest.NewServer(New(Config{Logger: logger}).Handler())
	t.Cleanup(ts.Close)

	// Generated ID: echoed in the header, present in both the access-log
	// line and the query line.
	resp := post(t, ts.URL+"/v1/distance", Query{Algo: "edit", A: "ab", B: "ba"})
	id := resp.Header.Get("X-Request-Id")
	resp.Body.Close()
	if len(id) != 16 {
		t.Fatalf("X-Request-Id = %q, want 16 hex chars", id)
	}

	// Client-supplied ID is honored.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/distance",
		strings.NewReader(`{"algo":"edit","a":"x","b":"y"}`))
	req.Header.Set("X-Request-Id", "client-chosen-id")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got != "client-chosen-id" {
		t.Fatalf("inbound request ID not echoed: %q", got)
	}

	logs := logBuf.String()
	for _, want := range []string{
		`"msg":"request"`, `"msg":"query"`, `"algo":"edit"`,
		`"requestId":"` + id + `"`, `"requestId":"client-chosen-id"`,
		`"status":200`,
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("log missing %s in:\n%s", want, logs)
		}
	}
	// The query line and the access line of the same request share the ID.
	if strings.Count(logs, `"requestId":"`+id+`"`) < 2 {
		t.Errorf("request ID %s not threaded into the query log:\n%s", id, logs)
	}
}

func TestOpsHandler(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).OpsHandler())
	t.Cleanup(ts.Close)

	for path, wantCT := range map[string]string{
		"/debug/pprof/":          "text/html",
		"/debug/pprof/goroutine": "", // any
		"/metrics":               "text/plain; version=0.0.4",
		"/flight":                "application/json",
		"/version":               "application/json",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if wantCT != "" && !strings.HasPrefix(resp.Header.Get("Content-Type"), wantCT) {
			t.Errorf("GET %s: content type %q, want prefix %q", path, resp.Header.Get("Content-Type"), wantCT)
		}
	}

	// /status is the cluster's: 404 without one, its transport.Status with.
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /status without a cluster: status %d, want 404", resp.StatusCode)
	}
	fake := newFakeDist()
	dts := httptest.NewServer(New(Config{Dist: fake}).OpsHandler())
	t.Cleanup(dts.Close)
	resp, err = http.Get(dts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st transport.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /status with a cluster: status %d, decode %v", resp.StatusCode, err)
	}
	if want := fake.Status(); !reflect.DeepEqual(st, want) {
		t.Errorf("GET /status = %+v, want the cluster's %+v", st, want)
	}

	// pprof must NOT be reachable through the public handler.
	pub := newTestServer(t, Config{})
	resp, err = http.Get(pub.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("public handler serves pprof; it must stay ops-only")
	}
}
