package server

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mpcdist"
	"mpcdist/internal/fault"
	"mpcdist/internal/workload"
)

// robustServer builds a Server plus its httptest listener, keeping the
// *Server handle so tests can reach the pool and the draining switch.
func robustServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// occupyPool fills every slot of the server's pool with blocked work and
// returns a release function. It waits until the work is actually running.
func occupyPool(t *testing.T, srv *Server, slots int) (release func()) {
	t.Helper()
	block := make(chan struct{})
	running := make(chan struct{}, slots)
	for i := 0; i < slots; i++ {
		go func() {
			_ = srv.pool.DoWithin(context.Background(), 0, func() {
				running <- struct{}{}
				<-block
			})
		}()
	}
	for i := 0; i < slots; i++ {
		select {
		case <-running:
		case <-time.After(5 * time.Second):
			t.Fatal("pool occupant did not start")
		}
	}
	return func() { close(block) }
}

func getStatus(t *testing.T, url string) (int, map[string]string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body
}

// TestShedQueueLength checks the queue-length shed: with the pool busy and
// the queue at the threshold, new queries get 429 + Retry-After instead of
// piling more latency onto everyone, and /readyz flips to overloaded.
func TestShedQueueLength(t *testing.T) {
	srv, ts := robustServer(t, Config{
		PoolSize:   1,
		CacheSize:  -1,
		ShedQueue:  1,
		RetryAfter: 2 * time.Second,
	})
	release := occupyPool(t, srv, 1)
	defer release()

	// One caller queued brings Waiting to the threshold.
	queued := make(chan struct{})
	qctx, qcancel := context.WithCancel(context.Background())
	defer qcancel()
	go func() {
		close(queued)
		_ = srv.pool.DoWithin(qctx, 0, func() {})
	}()
	<-queued
	deadline := time.Now().Add(5 * time.Second)
	for srv.pool.Waiting() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued caller never registered")
		}
		time.Sleep(time.Millisecond)
	}

	resp := post(t, ts.URL+"/v1/distance", Query{Algo: "edit", A: "kitten", B: "sitting"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, b)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	var e ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("429 body not an error envelope: %v / %+v", err, e)
	}

	if code, body := getStatus(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || body["status"] != "overloaded" {
		t.Errorf("/readyz while saturated = %d %v, want 503 overloaded", code, body)
	}
	if snap := metricsSnapshot(t, ts.URL); snap.Shed < 1 {
		t.Errorf("metrics shed = %d, want >= 1", snap.Shed)
	}

	// Draining the queue restores readiness.
	qcancel()
	for srv.pool.Waiting() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
	if code, body := getStatus(t, ts.URL+"/readyz"); code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("/readyz after drain = %d %v, want 200 ok", code, body)
	}
}

// TestShedWaitBudget checks the queue-wait budget: a request that cannot
// get a slot within ShedWait is shed with 429 rather than waiting out the
// full request timeout.
func TestShedWaitBudget(t *testing.T) {
	srv, ts := robustServer(t, Config{
		PoolSize:       1,
		CacheSize:      -1,
		ShedWait:       20 * time.Millisecond,
		RequestTimeout: 10 * time.Second,
	})
	release := occupyPool(t, srv, 1)
	defer release()

	start := time.Now()
	resp := post(t, ts.URL+"/v1/distance", Query{Algo: "edit", A: "abc", B: "abd"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("shed took %v; the budget should cut the wait to ~20ms", d)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	snap := metricsSnapshot(t, ts.URL)
	if snap.Shed < 1 || snap.Pool.Shed < 1 {
		t.Errorf("shed counters = server %d pool %d, want both >= 1", snap.Shed, snap.Pool.Shed)
	}
}

// TestDegradedFallback checks the degradation ladder: an MPC query whose
// reserve-reduced deadline expires is answered by the exact sequential
// fallback, marked degraded, not cached, and counted in the metrics.
func TestDegradedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	aSeq, bSeq := rng.Perm(4000), rng.Perm(4000)
	ulamWant, err := mpcdist.UlamDistanceE(aSeq, bSeq)
	if err != nil {
		t.Fatal(err)
	}
	ulamQ := Query{Algo: "ulam-mpc", ASeq: aSeq, BSeq: bSeq, X: 0.3, Seed: 4}
	rng = rand.New(rand.NewSource(5))
	a, b := workload.RandomString(rng, 4000, 8), workload.RandomString(rng, 4000, 8)
	editQ := Query{Algo: "edit-mpc", A: string(a), B: string(b), X: 0.25, Seed: 4}

	// With a 9.9 s reserve the job gets ~100ms, far from enough; machines
	// it already started run to completion (~260ms each for Ulam here,
	// seconds under -race on a loaded host) before the fallback may start.
	// A reserve covering the whole timeout leaves the job a deadline
	// already past, so the fallback answers at once.
	for _, tc := range []struct {
		name             string
		q                Query
		timeout, reserve time.Duration
		want             int
	}{
		{"ulam-mpc", ulamQ, 10 * time.Second, 9900 * time.Millisecond, ulamWant},
		{"edit-mpc", editQ, 10 * time.Second, 9900 * time.Millisecond, mpcdist.EditDistanceFast(a, b, nil)},
		{"reserve-covers-timeout", ulamQ, time.Second, time.Second, ulamWant},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := robustServer(t, Config{RequestTimeout: tc.timeout, DegradeReserve: tc.reserve})
			for i := 0; i < 2; i++ {
				ans := decodeAnswer(t, post(t, ts.URL+"/v1/distance", tc.q))
				if !ans.Degraded {
					t.Fatalf("request %d: job beat a %v deadline; answer not degraded: %+v", i, tc.timeout-tc.reserve, ans)
				}
				if ans.Distance != tc.want {
					t.Errorf("degraded distance = %d, want exact %d", ans.Distance, tc.want)
				}
				if ans.Cached {
					t.Error("degraded answer served from cache; degraded answers must not be cached")
				}
			}
			snap := metricsSnapshot(t, ts.URL)
			if snap.Degraded < 2 {
				t.Errorf("metrics degraded = %d, want >= 2", snap.Degraded)
			}
			if st := snap.Algorithms[tc.q.Algo]; st == nil || st.CacheHits != 0 {
				t.Errorf("degraded answers produced cache hits: %+v", st)
			}
		})
	}
}

// TestReadyzDraining checks the liveness/readiness split: draining flips
// /readyz to 503 while /healthz keeps answering 200.
func TestReadyzDraining(t *testing.T) {
	srv, ts := robustServer(t, Config{})
	if code, body := getStatus(t, ts.URL+"/readyz"); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("/readyz = %d %v, want 200 ok", code, body)
	}
	srv.SetDraining(true)
	if code, body := getStatus(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Errorf("/readyz while draining = %d %v, want 503 draining", code, body)
	}
	if code, _ := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz while draining = %d, want 200 (liveness is not readiness)", code)
	}
	srv.SetDraining(false)
	if code, _ := getStatus(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after drain ends = %d, want 200", code)
	}
}

// TestServerFaultInjection checks a server configured with a fault plan
// still answers MPC queries exactly (recovery is bit-identical), surfaces
// the recovery work in Answer.Retries and the report, and exports the
// fault counters on /metrics.
func TestServerFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 500
	aSeq := rng.Perm(n)
	bSeq := append([]int(nil), aSeq...)
	for k := 0; k < 12; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		bSeq[i], bSeq[j] = bSeq[j], bSeq[i]
	}
	q := Query{Algo: "ulam-mpc", ASeq: aSeq, BSeq: bSeq, X: 0.3, Seed: 4}

	_, plain := robustServer(t, Config{})
	ref := decodeAnswer(t, post(t, plain.URL+"/v1/distance", q))
	if ref.Retries != 0 {
		t.Fatalf("fault-free server reported retries=%d", ref.Retries)
	}

	_, faulty := robustServer(t, Config{
		Faults: &fault.Plan{Seed: 11, Crash: 0.05, CrashAfter: 0.1, MaxRetries: 20},
	})
	a := decodeAnswer(t, post(t, faulty.URL+"/v1/distance", q))
	if a.Distance != ref.Distance {
		t.Errorf("faulted distance = %d, fault-free %d; recovery must be exact", a.Distance, ref.Distance)
	}
	if a.Retries == 0 || a.Report == nil || a.Report.Failures == 0 {
		t.Fatalf("fault plan injected nothing (retries=%d report=%+v); the test is vacuous", a.Retries, a.Report)
	}
	if a.Report.TotalOps != ref.Report.TotalOps || a.Report.CommWords != ref.Report.CommWords {
		t.Errorf("model counters drifted under faults: %+v vs %+v", a.Report, ref.Report)
	}

	resp, err := http.Get(faulty.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, series := range []string{
		`mpcserve_mpc_failures_total{algo="ulam-mpc"}`,
		`mpcserve_mpc_retries_total{algo="ulam-mpc"}`,
		"mpcserve_degraded_total 0",
		"mpcserve_shed_total 0",
	} {
		if !strings.Contains(string(text), series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}
