package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"mpcdist"
	"mpcdist/internal/checkpoint"
	"mpcdist/internal/dist"
	"mpcdist/internal/transport"
	"mpcdist/internal/workload"
)

// counts is the part of a Snapshot the counting rules decide.
type counts struct {
	Requests, BadInput, Shed, Timeouts, Errors, Degraded, Batches uint64
	Algos                                                         map[string]algoCounts
}

type algoCounts struct{ Requests, CacheHits, Errors, MPCRuns uint64 }

func countsOf(t *testing.T, s Snapshot) counts {
	t.Helper()
	c := counts{Requests: s.Requests, BadInput: s.BadInput, Shed: s.Shed, Timeouts: s.Timeouts,
		Errors: s.Errors, Degraded: s.Degraded, Batches: s.Batches, Algos: map[string]algoCounts{}}
	for name, st := range s.Algorithms {
		if st.Latency.Count != st.Requests {
			t.Errorf("%s: latency count %d != requests %d", name, st.Latency.Count, st.Requests)
		}
		c.Algos[name] = algoCounts{st.Requests, st.CacheHits, st.Errors, st.MPCRuns}
	}
	return c
}

// postStatus posts body (a string is sent as is, anything else as JSON),
// reads the whole response and returns its status.
func postStatus(t *testing.T, url string, body any) int {
	t.Helper()
	raw, ok := body.(string)
	if !ok {
		resp := post(t, url, body)
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// queueOne parks one caller in the pool's queue (the pool must be full)
// and returns a function that withdraws it.
func queueOne(t *testing.T, srv *Server) (withdraw func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	go func() { _ = srv.pool.DoWithin(ctx, 0, func() {}) }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.pool.Waiting() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued caller never registered")
		}
		time.Sleep(time.Millisecond)
	}
	return cancel
}

// failingDist is a DistRunner whose every job fails.
type failingDist struct{}

func (failingDist) RunSaved(dist.Job, *checkpoint.Saver) (mpcdist.MPCResult, error) {
	return mpcdist.MPCResult{}, errors.New("cluster lost")
}

func (failingDist) Status() transport.Status { return transport.Status{Parties: 1} }

// TestQueryCounting drives each query outcome through the handler and
// checks the counting rules on the snapshot: every query counts once in
// Requests and then under exactly one class (bad input, shed, timed out,
// failed, cached or computed), a degraded answer also in Degraded, and
// per-algorithm stats exist only for queries that passed validation.
func TestQueryCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	big := Query{Algo: "ulam-mpc", ASeq: rng.Perm(4000), BSeq: rng.Perm(4000), X: 0.3, Seed: 4}
	edit := Query{Algo: "edit", A: "kitten", B: "sitting"}
	ulam := Query{Algo: "ulam-mpc", ASeq: []int{5, 1, 2, 3, 4}, BSeq: []int{1, 2, 5, 3, 4}, X: 0.3}
	one := func(path string, body any) func(*testing.T, *Server, string) []int {
		return func(t *testing.T, _ *Server, url string) []int {
			return []int{postStatus(t, url+path, body)}
		}
	}
	blocked := func(queue bool) func(*testing.T, *Server, string) []int {
		return func(t *testing.T, srv *Server, url string) []int {
			defer occupyPool(t, srv, 1)()
			if queue {
				defer queueOne(t, srv)()
			}
			return []int{postStatus(t, url+"/v1/distance", edit)}
		}
	}
	only := func(algo string, c algoCounts) map[string]algoCounts { return map[string]algoCounts{algo: c} }
	cases := []struct {
		name   string
		cfg    Config
		drive  func(t *testing.T, srv *Server, url string) []int
		status []int
		want   counts
	}{
		{"shed by queue length", Config{PoolSize: 1, CacheSize: -1, ShedQueue: 1}, blocked(true),
			[]int{429}, counts{Requests: 1, Shed: 1, Algos: only("edit", algoCounts{Requests: 1})}},
		{"shed by queue wait", Config{PoolSize: 1, CacheSize: -1, ShedWait: 20 * time.Millisecond}, blocked(false),
			[]int{429}, counts{Requests: 1, Shed: 1, Algos: only("edit", algoCounts{Requests: 1})}},
		{"timed out while queued", Config{PoolSize: 1, CacheSize: -1, RequestTimeout: 50 * time.Millisecond}, blocked(false),
			[]int{504}, counts{Requests: 1, Timeouts: 1, Algos: only("edit", algoCounts{Requests: 1})}},
		{"timed out while computing", Config{RequestTimeout: 50 * time.Millisecond}, one("/v1/distance", big),
			[]int{504}, counts{Requests: 1, Timeouts: 1, Algos: only("ulam-mpc", algoCounts{Requests: 1})}},
		{"malformed body", Config{}, one("/v1/distance", "{not json"),
			[]int{400}, counts{Requests: 1, BadInput: 1, Algos: map[string]algoCounts{}}},
		{"empty batch", Config{}, one("/v1/batch", BatchRequest{}),
			[]int{400}, counts{Requests: 1, BadInput: 1, Algos: map[string]algoCounts{}}},
		{"oversized batch", Config{MaxBatch: 2}, one("/v1/batch", BatchRequest{Queries: []Query{edit, edit, edit}}),
			[]int{413}, counts{Requests: 1, BadInput: 1, Algos: map[string]algoCounts{}}},
		{"unknown algorithm", Config{}, one("/v1/distance", Query{Algo: "nope", A: "x", B: "y"}),
			[]int{400}, counts{Requests: 1, BadInput: 1, Algos: map[string]algoCounts{}}},
		{"invalid exponent", Config{}, one("/v1/distance", Query{Algo: "ulam-mpc", ASeq: []int{1, 2}, BSeq: []int{2, 1}, X: 0.9}),
			[]int{400}, counts{Requests: 1, BadInput: 1, Algos: map[string]algoCounts{}}},
		{"cached", Config{}, func(t *testing.T, _ *Server, url string) []int {
			return []int{postStatus(t, url+"/v1/distance", edit), postStatus(t, url+"/v1/distance", edit)}
		}, []int{200, 200}, counts{Requests: 2, Algos: only("edit", algoCounts{Requests: 2, CacheHits: 1})}},
		{"computed", Config{}, one("/v1/distance", ulam),
			[]int{200}, counts{Requests: 1, Algos: only("ulam-mpc", algoCounts{Requests: 1, MPCRuns: 1})}},
		{"failed", Config{Dist: failingDist{}}, one("/v1/distance", ulam),
			[]int{500}, counts{Requests: 1, Errors: 1, Algos: only("ulam-mpc", algoCounts{Requests: 1, Errors: 1})}},
		{"degraded", Config{RequestTimeout: 10 * time.Second, DegradeReserve: 9900 * time.Millisecond}, one("/v1/distance", big),
			[]int{200}, counts{Requests: 1, Degraded: 1, Algos: only("ulam-mpc", algoCounts{Requests: 1})}},
		{"batch", Config{}, one("/v1/batch", BatchRequest{Queries: []Query{edit, {Algo: "nope"}}}),
			[]int{200}, counts{Requests: 2, BadInput: 1, Batches: 1, Algos: only("edit", algoCounts{Requests: 1})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := robustServer(t, tc.cfg)
			if got := tc.drive(t, srv, ts.URL); !reflect.DeepEqual(got, tc.status) {
				t.Errorf("statuses %v, want %v", got, tc.status)
			}
			if got := countsOf(t, srv.Metrics().Snapshot()); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("counts\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

// TestDecodeRejectsTrailingData checks that a body holding anything after
// its one JSON value, which would otherwise be dropped unread, is a 400
// counted as bad input, while trailing whitespace is not.
func TestDecodeRejectsTrailingData(t *testing.T) {
	srv, ts := robustServer(t, Config{})
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/v1/distance", `{"algo":"edit","a":"kitten","b":"sitting"}{"algo":"nope"} trailing garbage`, 400},
		{"/v1/distance", `{"algo":"edit","a":"kitten","b":"sitting"} trailing garbage`, 400},
		{"/v1/batch", `{"queries":[{"algo":"edit","a":"kitten","b":"sitting"}]} []`, 400},
		{"/v1/distance", "{\"algo\":\"edit\",\"a\":\"kitten\",\"b\":\"sitting\"}\n \t\n", 200},
	} {
		if got := postStatus(t, ts.URL+c.path, c.body); got != c.want {
			t.Errorf("POST %s %q: status %d, want %d", c.path, c.body, got, c.want)
		}
	}
	want := counts{Requests: 4, BadInput: 3, Algos: map[string]algoCounts{"edit": {Requests: 1}}}
	if got := countsOf(t, srv.Metrics().Snapshot()); !reflect.DeepEqual(got, want) {
		t.Errorf("counts\n got  %+v\n want %+v", got, want)
	}
}

// TestNonFiniteParams checks the server side of the parameter check: a
// NaN exponent and a NaN, infinite or tiny slack are 400s, answered
// promptly (a slack whose 1+eps rounds to 1 once spun the edit guess
// ladder inside a pool slot forever). A huge finite slack, which once spun
// that ladder past every deadline, and slacks above 1 on 300-long inputs,
// which once shrank the memory budget until valid runs failed as 500s,
// are answered within the request timeout.
func TestNonFiniteParams(t *testing.T) {
	srv := New(Config{RequestTimeout: 2 * time.Second})
	for _, q := range []Query{
		{Algo: "edit-mpc", A: "kitten", B: "sitting", Eps: math.NaN()},
		{Algo: "edit-mpc", A: "kitten", B: "sitting", Eps: math.Inf(1)},
		{Algo: "ulam-mpc", ASeq: []int{1, 2}, BSeq: []int{2, 1}, X: math.NaN()},
	} {
		if _, _, err := srv.validate(q); statusFor(err) != http.StatusBadRequest {
			t.Errorf("validate(x=%v, eps=%v) = %v, want a 400", q.X, q.Eps, err)
		}
	}

	rng := rand.New(rand.NewSource(5))
	perm, moved, _ := workload.PlantedUlam(rng, 300, 30)
	a := string(workload.RandomString(rng, 300, 4))
	b := string(workload.PlantedEdits(rng, []byte(a), 30, 4))
	for _, c := range []struct {
		q    Query
		want int
	}{
		{Query{Algo: "edit-mpc", A: "kitten", B: "sitting", Eps: 1e19}, http.StatusOK},
		{Query{Algo: "edit-mpc", A: "kitten", B: "sitting", Eps: 1e-17}, http.StatusBadRequest},
		{Query{Algo: "ulam-mpc", ASeq: perm, BSeq: moved, Eps: 10}, http.StatusOK},
		{Query{Algo: "lcs-mpc", A: a, B: b, Eps: 6}, http.StatusOK},
	} {
		body, err := json.Marshal(c.q)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/distance", bytes.NewReader(body)))
		}()
		select {
		case <-done:
		case <-time.After(srv.cfg.RequestTimeout):
			t.Fatalf("%s eps=%v query not answered within the %v request timeout", c.q.Algo, c.q.Eps, srv.cfg.RequestTimeout)
		}
		if rec.Code != c.want {
			t.Errorf("%s eps=%v query: status %d (%s), want %d", c.q.Algo, c.q.Eps, rec.Code, rec.Body, c.want)
		}
	}
}
