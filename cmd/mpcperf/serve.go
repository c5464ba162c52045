package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"mpcdist/internal/checkpoint"
	"mpcdist/internal/dist"
	"mpcdist/internal/server"
)

// Request kinds of serve-mix. Every block of 20 requests holds exactly
// 6 ulam, 7 edit, 5 hit and 2 batch requests (30/35/25/10%) in seeded
// order, so the mix does not drift with the seed.
const (
	kindUlam  = "ulam"  // fresh ulam-mpc query: a cache miss
	kindEdit  = "edit"  // fresh edit-mpc query: a cache miss
	kindHit   = "hit"   // a repeat of the hot set: a cache hit
	kindBatch = "batch" // /v1/batch of edit-mpc queries: checkpoint writes
)

var mixBlock = []struct {
	kind  string
	count int
}{{kindUlam, 6}, {kindEdit, 7}, {kindHit, 5}, {kindBatch, 2}}

// request is one pre-encoded HTTP request with the oracle distance of each
// answer it should bring back.
type request struct {
	kind  string
	path  string
	body  []byte
	algo  string
	exact []int
}

type serveSizes struct {
	ulamN, editN, editD, batchN, batchD, batchSize, hot, blocks int
}

// serveMix drives server.New's handler on a loopback listener with two
// closed-loop clients.
type serveMix struct {
	hot  []request
	reqs []request
}

func prepareServeMix(seed int64, small bool) inputs {
	sz := serveSizes{ulamN: 256, editN: 1024, editD: 32, batchN: 512, batchD: 16, batchSize: 4, hot: 16, blocks: 120}
	if small {
		sz = serveSizes{ulamN: 48, editN: 96, editD: 6, batchN: 64, batchD: 4, batchSize: 2, hot: 4, blocks: 10}
	}
	rng := rand.New(rand.NewSource(seed))
	jobs := 0
	nextSeed := func() int64 { jobs++; return jobSeed(jobs) }
	fresh := func(kind string) request {
		switch kind {
		case kindUlam:
			pr := ulamPair(rng, sz.ulamN, nextSeed())
			return distanceRequest(kind, server.Query{Algo: dist.AlgoUlamMPC, X: 0.3, ASeq: pr.p, BSeq: pr.q, Seed: pr.seed}, pr.exact)
		case kindEdit:
			pr := dnaPair(rng, sz.editN, sz.editD, nextSeed())
			return distanceRequest(kind, server.Query{Algo: dist.AlgoEditMPC, A: string(pr.s), B: string(pr.t), Seed: pr.seed}, pr.exact)
		}
		var batch server.BatchRequest
		r := request{kind: kindBatch, path: "/v1/batch", algo: dist.AlgoEditMPC}
		for i := 0; i < sz.batchSize; i++ {
			pr := dnaPair(rng, sz.batchN, sz.batchD, nextSeed())
			batch.Queries = append(batch.Queries, server.Query{Algo: dist.AlgoEditMPC, A: string(pr.s), B: string(pr.t), Seed: pr.seed})
			r.exact = append(r.exact, pr.exact)
		}
		r.body = mustJSON(batch)
		return r
	}
	m := &serveMix{}
	for i := 0; i < sz.hot; i++ {
		kind := kindUlam
		if i%2 == 1 {
			kind = kindEdit
		}
		h := fresh(kind)
		h.kind = kindHit
		m.hot = append(m.hot, h)
	}
	for b := 0; b < sz.blocks; b++ {
		var kinds []string
		for _, k := range mixBlock {
			for i := 0; i < k.count; i++ {
				kinds = append(kinds, k.kind)
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, kind := range kinds {
			if kind == kindHit {
				m.reqs = append(m.reqs, m.hot[rng.Intn(len(m.hot))])
			} else {
				m.reqs = append(m.reqs, fresh(kind))
			}
		}
	}
	return m
}

func distanceRequest(kind string, q server.Query, exact int) request {
	return request{kind: kind, path: "/v1/distance", body: mustJSON(q), algo: q.Algo, exact: []int{exact}}
}

// mustJSON encodes values that always encode (plain structs of strings and
// numbers).
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func (m *serveMix) fingerprint() string {
	var d digest
	for _, r := range m.hot {
		d.bytes(r.body)
	}
	for _, r := range m.reqs {
		d.bytes(r.body)
	}
	return d.hex()
}

func (m *serveMix) limit() int { return len(m.reqs) }

// start runs mpcserve's handler with its default pool and cache and a
// checkpoint store, and pre-fills the cache with the hot set (the warm-up).
func (m *serveMix) start(dir string, _ *ledger) (system, error) {
	store, err := checkpoint.Open(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve-mix: listen: %w", err)
	}
	s := &serveSystem{
		serveMix: m,
		url:      "http://" + ln.Addr().String(),
		srv:      &http.Server{Handler: server.New(server.Config{Checkpoint: store}).Handler()},
		served:   make(chan error, 1),
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	for _, h := range m.hot {
		if s.send(h).failed {
			s.close()
			return nil, fmt.Errorf("serve-mix: hot-set pre-fill request failed or answered outside the proven factor")
		}
	}
	return s, nil
}

type serveSystem struct {
	*serveMix
	url    string
	srv    *http.Server
	served chan error
	client *http.Client
}

func (s *serveSystem) op(i int, _ *ledger) sample { return s.send(s.reqs[i]) }

// send posts one request, reads the whole response and checks every
// answer. Errors, non-200 responses and answers outside the proven factor
// count as failures.
func (s *serveSystem) send(r request) sample {
	out := sample{kind: r.kind, failed: true}
	resp, err := s.client.Post(s.url+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return out
	}
	var answers []server.Answer
	if r.kind == kindBatch {
		sc := bufio.NewScanner(bytes.NewReader(body))
		answers = make([]server.Answer, len(r.exact))
		seen := 0
		for sc.Scan() {
			var item server.BatchItem
			if json.Unmarshal(sc.Bytes(), &item) != nil || item.Answer == nil ||
				item.Index < 0 || item.Index >= len(answers) {
				return out
			}
			answers[item.Index] = *item.Answer
			seen++
		}
		if seen != len(answers) {
			return out
		}
	} else {
		var a server.Answer
		if json.Unmarshal(body, &a) != nil {
			return out
		}
		answers = []server.Answer{a}
		out.cached, out.computeMs = a.Cached, a.ElapsedMs
	}
	for i, a := range answers {
		if !proven(a.Distance, r.exact[i], factorFor(r.algo, a.Regime)) {
			return out
		}
	}
	out.failed = false
	return out
}

func (s *serveSystem) counters() (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics?format=json")
	if err != nil {
		return nil, fmt.Errorf("serve-mix: metrics: %w", err)
	}
	defer resp.Body.Close()
	var snap server.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("serve-mix: metrics: %w", err)
	}
	if snap.Checkpoint == nil {
		return nil, errors.New("serve-mix: metrics carry no checkpoint section")
	}
	return map[string]float64{
		"checkpoint.saves": float64(snap.Checkpoint.Saves),
		"checkpoint.kb":    float64(snap.Checkpoint.BytesWritten) / 1024,
	}, nil
}

func (s *serveSystem) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}
