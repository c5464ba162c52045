package server

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"mpcdist/internal/checkpoint"
	"mpcdist/internal/dist"
)

// batch posts the queries as one batch and returns the answers in query
// order.
func batch(t *testing.T, base string, qs ...Query) []Answer {
	t.Helper()
	resp := post(t, base+"/v1/batch", BatchRequest{Queries: qs})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	answers := make([]Answer, len(qs))
	sc := bufio.NewScanner(resp.Body)
	for range qs {
		if !sc.Scan() {
			t.Fatalf("short batch response: %v", sc.Err())
		}
		var item BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatal(err)
		}
		if item.Error != "" {
			t.Fatalf("batch query %d failed: %s", item.Index, item.Error)
		}
		answers[item.Index] = *item.Answer
	}
	return answers
}

// TestMain lets the test binary serve as its own worker processes: the
// session case of TestBatchCheckpointResume re-execs this binary, and
// MaybeWorkerMain hijacks those copies before any test runs.
func TestMain(m *testing.M) {
	dist.MaybeWorkerMain()
	os.Exit(m.Run())
}

// TestBatchCheckpointResume is the mpcserve-restart story in miniature,
// run in-process and over a 1-worker session, which share one durability
// policy: an interactive /v1/distance query never touches the store; a
// batch MPC query persists its rounds; a second server over the same store
// (a restarted process — fresh cache, fresh metrics) answers the same
// query by fast-forwarding every round, bit-identically, and reports it in
// resumedRounds and the metrics; and a torn store self-heals into a fresh
// run instead of failing the request.
func TestBatchCheckpointResume(t *testing.T) {
	t.Run("local", func(t *testing.T) { checkBatchResume(t, nil) })
	t.Run("session", func(t *testing.T) {
		if testing.Short() {
			t.Skip("spawns worker processes")
		}
		sess, err := dist.NewSession(dist.SessionOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		checkBatchResume(t, sess)
	})
}

// checkBatchResume drives the restart story against servers that run MPC
// jobs on cluster (nil = in-process).
func checkBatchResume(t *testing.T, cluster DistRunner) {
	rng := rand.New(rand.NewSource(9))
	n := 300
	s := rng.Perm(n)
	sbar := append([]int(nil), s...)
	sbar[10], sbar[200] = sbar[200], sbar[10]
	q := Query{Algo: "ulam-mpc", ASeq: s, BSeq: sbar, X: 0.3, Seed: 7}

	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Checkpoint: store, CheckpointEvery: 1, CacheSize: -1, Dist: cluster}
	same := func(name string, a, want Answer) {
		t.Helper()
		if a.Distributed != (cluster != nil) {
			t.Errorf("%s answer: distributed = %v on cluster %v", name, a.Distributed, cluster)
		}
		if a.Distance != want.Distance || a.Report == nil || want.Report == nil ||
			a.Report.Rounds != want.Report.Rounds || a.Report.TotalOps != want.Report.TotalOps ||
			a.Report.CommWords != want.Report.CommWords {
			t.Fatalf("%s answer differs: %d %+v, want %d %+v", name, a.Distance, a.Report, want.Distance, want.Report)
		}
	}

	// /v1/distance must not touch the store: short interactive queries
	// recompute; only long batch jobs earn durability.
	ts1 := newTestServer(t, cfg)
	a0 := decodeAnswer(t, post(t, ts1.URL+"/v1/distance", q))
	if jobs, err := store.Jobs(); err != nil || len(jobs) != 0 {
		t.Fatalf("interactive query wrote to the store: jobs %v, %v", jobs, err)
	}
	rounds := a0.Report.Rounds

	// First batch: computes live, persists every round.
	a1 := batch(t, ts1.URL, q)[0]
	same("first batch", a1, a0)
	if a1.ResumedRounds != 0 {
		t.Fatalf("first run resumed %d rounds, want 0", a1.ResumedRounds)
	}
	jobs, err := store.Jobs()
	if err != nil || len(jobs) != 1 {
		t.Fatalf("store jobs after first batch: %v, %v", jobs, err)
	}
	snap1 := metricsSnapshot(t, ts1.URL)
	if snap1.Checkpoint == nil || snap1.Checkpoint.Saves != uint64(rounds) {
		t.Fatalf("metrics after first batch: %+v, want %d saves", snap1.Checkpoint, rounds)
	}

	// "Restarted" server over the same store: the job fast-forwards.
	ts2 := newTestServer(t, cfg)
	a2 := batch(t, ts2.URL, q)[0]
	same("resumed", a2, a0)
	if a2.ResumedRounds != rounds {
		t.Fatalf("restarted server resumed %d rounds, want %d", a2.ResumedRounds, rounds)
	}
	snap2 := metricsSnapshot(t, ts2.URL)
	if snap2.Checkpoint == nil || snap2.Checkpoint.ResumedSteps != uint64(rounds) || snap2.Checkpoint.Saves != 0 {
		t.Fatalf("metrics after resume: %+v, want %d resumed / 0 saves", snap2.Checkpoint, rounds)
	}

	// Torn manifest: the next batch self-heals (fresh run, logged), the
	// request still succeeds, and the store is rewritten clean.
	path := filepath.Join(store.Dir(), "manifests", jobs[0]+".json")
	if err := os.WriteFile(path, []byte(`{"version":1,`), 0o644); err != nil {
		t.Fatal(err)
	}
	ts3 := newTestServer(t, cfg)
	a3 := batch(t, ts3.URL, q)[0]
	same("self-healed", a3, a0)
	if a3.ResumedRounds != 0 {
		t.Errorf("self-healed run claims %d resumed rounds", a3.ResumedRounds)
	}
	if man, err := store.Manifest(jobs[0]); err != nil || len(man.Steps) != rounds {
		t.Errorf("store not healed: manifest %+v, %v", man, err)
	}

	// Two jobs in one batch run concurrently (on a cluster they serialize on
	// the session): each answer reports its own saver's resumed rounds, on
	// the first pass (one job stored, one new) and on the second (both).
	q2 := q
	q2.Seed = 8
	for pass, want2 := range []int{0, rounds} {
		got := batch(t, ts3.URL, q, q2)
		same("concurrent", got[0], a0)
		if got[0].ResumedRounds != rounds || got[1].ResumedRounds != want2 {
			t.Fatalf("concurrent batch pass %d resumed %d and %d rounds, want %d and %d",
				pass, got[0].ResumedRounds, got[1].ResumedRounds, rounds, want2)
		}
	}
}
