package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpcdist"

	"context"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeAnswer(t *testing.T, resp *http.Response) Answer {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("status %d: %s", resp.StatusCode, e.Error)
	}
	var a Answer
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	return a
}

func metricsSnapshot(t *testing.T, base string) Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestSingleDistance(t *testing.T) {
	ts := newTestServer(t, Config{})
	a := decodeAnswer(t, post(t, ts.URL+"/v1/distance",
		Query{Algo: "edit", A: "kitten", B: "sitting"}))
	if a.Distance != 3 {
		t.Fatalf("edit(kitten,sitting) = %d, want 3", a.Distance)
	}
	if a.Cached {
		t.Fatal("first query reported cached")
	}

	u := decodeAnswer(t, post(t, ts.URL+"/v1/distance",
		Query{Algo: "ulam", ASeq: []int{1, 2, 3, 4}, BSeq: []int{2, 3, 4, 1}}))
	if want := mpcdist.UlamDistance([]int{1, 2, 3, 4}, []int{2, 3, 4, 1}); u.Distance != want {
		t.Fatalf("ulam = %d, want %d", u.Distance, want)
	}

	l := decodeAnswer(t, post(t, ts.URL+"/v1/distance",
		Query{Algo: "lulam", ASeq: []int{2, 3}, BSeq: []int{1, 2, 3, 4}}))
	if l.Distance != 0 || l.Window == nil {
		t.Fatalf("lulam = %+v, want distance 0 with window", l)
	}
}

func TestBadInput(t *testing.T) {
	ts := newTestServer(t, Config{MaxInputLen: 64})
	cases := []struct {
		name string
		q    Query
		want int
	}{
		{"unknown algo", Query{Algo: "nope", A: "x", B: "y"}, http.StatusBadRequest},
		{"repeated chars", Query{Algo: "ulam", ASeq: []int{1, 1}, BSeq: []int{1, 2}}, http.StatusBadRequest},
		{"bad x", Query{Algo: "ulam-mpc", ASeq: []int{1, 2}, BSeq: []int{2, 1}, X: 0.9}, http.StatusBadRequest},
		{"too long", Query{Algo: "edit", A: strings.Repeat("a", 65), B: "b"}, http.StatusRequestEntityTooLarge},
		{"empty mpc", Query{Algo: "edit-mpc"}, http.StatusBadRequest},
		{"negative bound", Query{Algo: "edit-bounded", A: "a", B: "b", Bound: -1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := post(t, ts.URL+"/v1/distance", tc.q)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/distance", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

func TestMPCQuery(t *testing.T) {
	ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(11))
	a := make([]byte, 400)
	for i := range a {
		a[i] = byte('a' + rng.Intn(4))
	}
	b := append([]byte(nil), a...)
	for k := 0; k < 12; k++ {
		b[rng.Intn(len(b))] = byte('a' + rng.Intn(4))
	}
	ans := decodeAnswer(t, post(t, ts.URL+"/v1/distance",
		Query{Algo: "edit-mpc", A: string(a), B: string(b), X: 0.25, Seed: 7}))
	if ans.Report == nil || ans.Report.Rounds < 1 {
		t.Fatalf("MPC answer missing report: %+v", ans)
	}
	exact := mpcdist.EditDistance(string(a), string(b))
	if ans.Distance < exact || ans.Distance > 4*exact+4 {
		t.Fatalf("edit-mpc = %d, exact = %d: outside sanity band", ans.Distance, exact)
	}

	// Ulam MPC over HTTP too.
	n := 300
	s := rng.Perm(n)
	sbar := append([]int(nil), s...)
	sbar[10], sbar[200] = sbar[200], sbar[10]
	u := decodeAnswer(t, post(t, ts.URL+"/v1/distance",
		Query{Algo: "ulam-mpc", ASeq: s, BSeq: sbar, X: 0.3, Seed: 7}))
	if u.Report == nil || u.Report.Rounds != 2 {
		t.Fatalf("ulam-mpc report = %+v, want 2 rounds", u.Report)
	}
	if exact := mpcdist.UlamDistance(s, sbar); u.Distance < exact || u.Distance > 2*exact+2 {
		t.Fatalf("ulam-mpc = %d, exact = %d", u.Distance, exact)
	}
}

func TestBatch100(t *testing.T) {
	ts := newTestServer(t, Config{})
	const n = 100
	req := BatchRequest{}
	want := make([]int, n)
	for i := 0; i < n; i++ {
		a := fmt.Sprintf("batch-query-%d-left", i)
		b := fmt.Sprintf("batch-%d-query-right", i%7)
		want[i] = mpcdist.EditDistance(a, b)
		req.Queries = append(req.Queries, Query{Algo: "edit", A: a, B: b})
	}
	resp := post(t, ts.URL+"/v1/batch", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	seen := make(map[int]bool)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var item BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if item.Error != "" {
			t.Fatalf("query %d failed: %s", item.Index, item.Error)
		}
		if seen[item.Index] {
			t.Fatalf("duplicate index %d", item.Index)
		}
		seen[item.Index] = true
		if item.Answer.Distance != want[item.Index] {
			t.Fatalf("query %d = %d, want %d", item.Index, item.Answer.Distance, want[item.Index])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("got %d results, want %d", len(seen), n)
	}
}

func TestBatchPartialErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := BatchRequest{Queries: []Query{
		{Algo: "edit", A: "abc", B: "abd"},
		{Algo: "ulam", ASeq: []int{5, 5}, BSeq: []int{1, 2}}, // invalid
	}}
	resp := post(t, ts.URL+"/v1/batch", req)
	defer resp.Body.Close()
	var okCount, errCount int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var item BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatal(err)
		}
		if item.Error != "" {
			errCount++
		} else {
			okCount++
		}
	}
	if okCount != 1 || errCount != 1 {
		t.Fatalf("ok=%d err=%d, want 1/1", okCount, errCount)
	}
}

func TestCacheHitViaMetrics(t *testing.T) {
	ts := newTestServer(t, Config{})
	q := Query{Algo: "edit-mpc", A: "abcabcabcabcabcabcab", B: "abcabcXbcabcabcabYab", X: 0.25, Seed: 3}
	first := decodeAnswer(t, post(t, ts.URL+"/v1/distance", q))
	if first.Cached {
		t.Fatal("first query cached")
	}
	second := decodeAnswer(t, post(t, ts.URL+"/v1/distance", q))
	if !second.Cached {
		t.Fatal("second identical query not served from cache")
	}
	if second.Distance != first.Distance {
		t.Fatalf("cached distance %d != %d", second.Distance, first.Distance)
	}

	// A different seed is a different key.
	q.Seed = 4
	third := decodeAnswer(t, post(t, ts.URL+"/v1/distance", q))
	if third.Cached {
		t.Fatal("different-params query served from cache")
	}

	snap := metricsSnapshot(t, ts.URL)
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 2 {
		t.Fatalf("cache stats %+v, want 1 hit / 2 misses", snap.Cache)
	}
	st := snap.Algorithms["edit-mpc"]
	if st == nil || st.Requests != 3 || st.CacheHits != 1 {
		t.Fatalf("algo stats %+v, want 3 requests / 1 cache hit", st)
	}
	if st.MPCRuns != 2 || st.MaxRounds < 1 || st.TotalOps <= 0 {
		t.Fatalf("MPC aggregates not recorded: %+v", st)
	}
	if st.Latency.Count != 3 {
		t.Fatalf("latency count %d, want 3", st.Latency.Count)
	}
}

func TestTimeoutReturnsPromptlyWithoutLeaks(t *testing.T) {
	ts := newTestServer(t, Config{RequestTimeout: time.Millisecond})
	rng := rand.New(rand.NewSource(5))
	n := 5000
	s := rng.Perm(n)
	sbar := rng.Perm(n)

	before := runtime.NumGoroutine()
	start := time.Now()
	resp := post(t, ts.URL+"/v1/distance", Query{Algo: "ulam-mpc", ASeq: s, BSeq: sbar, X: 0.3})
	elapsed := time.Since(start)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want timeout", resp.StatusCode)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timed-out request took %v", elapsed)
	}

	// All simulation goroutines must drain.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}

	snap := metricsSnapshot(t, ts.URL)
	if snap.Timeouts == 0 {
		t.Fatalf("timeout not counted: %+v", snap)
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	s := New(Config{})
	h := s.recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if snap := s.metrics.Snapshot(); snap.Panics != 1 {
		t.Fatalf("panics = %d, want 1", snap.Panics)
	}
}

func TestHealthAndAlgorithms(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	names := body["algorithms"]
	if len(names) != len(algos) {
		t.Fatalf("algorithms list has %d entries, want %d", len(names), len(algos))
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	var running, peak atomic.Int64
	done := make(chan struct{})
	for i := 0; i < 20; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			_ = p.DoWithin(context.Background(), 0, func() {
				cur := running.Add(1)
				for {
					old := peak.Load()
					if cur <= old || peak.CompareAndSwap(old, cur) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				running.Add(-1)
			})
		}()
	}
	for i := 0; i < 20; i++ {
		<-done
	}
	if got := peak.Load(); got > 3 {
		t.Fatalf("peak concurrency %d exceeds pool size 3", got)
	}
	if st := p.Stats(); st.Completed != 20 || st.Running != 0 {
		t.Fatalf("pool stats %+v", st)
	}

	// A cancelled context never runs the function.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := p.DoWithin(ctx, 0, func() { ran = true }); err == nil || ran {
		t.Fatalf("DoWithin on cancelled ctx: err=%v ran=%v", err, ran)
	}
}

func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	c.Put("a", Answer{Distance: 1})
	c.Put("b", Answer{Distance: 2})
	c.Put("c", Answer{Distance: 3}) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived eviction")
	}
	if v, ok := c.Get("b"); !ok || v.Distance != 2 {
		t.Fatal("b missing")
	}
	c.Put("d", Answer{Distance: 4}) // evicts c (b was just used)
	if _, ok := c.Get("c"); ok {
		t.Fatal("c survived eviction despite LRU order")
	}
	st := c.Stats()
	if st.Evictions != 2 || st.Size != 2 {
		t.Fatalf("stats %+v", st)
	}

	// Capacity 0 disables caching entirely.
	off := NewCache(0)
	off.Put("x", Answer{})
	if _, ok := off.Get("x"); ok {
		t.Fatal("disabled cache returned a hit")
	}
}
