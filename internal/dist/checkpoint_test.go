package dist

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mpcdist/internal/checkpoint"
	"mpcdist/internal/core"
	"mpcdist/internal/transport"
)

// tearManifest overwrites the job's manifest with truncated JSON — the
// damage a crashed foreign writer (not this store, whose writes are
// atomic) could leave behind.
func tearManifest(t *testing.T, store *checkpoint.Store, digest string) {
	t.Helper()
	path := filepath.Join(store.Dir(), "manifests", digest+".json")
	if err := os.WriteFile(path, []byte(`{"version":1,"job":`), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTCPCheckpointResume drives the distributed resume path end to end
// without killing processes (the CI smoke step covers a real SIGKILL):
// a checkpointed session completes a job, then fresh sessions over the
// same store fast-forward it — fully, and from a truncated prefix that
// simulates a coordinator killed between flushes — with bit-identical
// results. The coordinator ships the resume prefix inside the job spec,
// so the workers' transport sequence numbers stay aligned; any skew here
// fails loudly, not subtly. Finally the store format is checked to be one
// across transports: each side fast-forwards what the other wrote.
//
// It runs on the cheapest pipeline, ulam-mpc, resuming its first round,
// and on the far edit-mpc job, resuming every step up to the large
// regime's join round, so that the extend round is laid out from the
// join round's output as read back from the store.
func TestTCPCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	for _, c := range []struct {
		name string
		job  Job
		keep func(steps int) int // the steps the truncated manifest keeps
	}{
		{"ulam-mpc", parityJobs()[0], func(int) int { return 1 }},
		{"edit-mpc-far", farJob(), func(steps int) int { return steps - 2 }},
	} {
		t.Run(c.name, func(t *testing.T) { checkpointResume(t, c.name, c.job, c.keep) })
	}
}

func checkpointResume(t *testing.T, name string, job Job, keepOf func(steps int) int) {
	local, lerr := runLocal(job)
	if lerr != nil {
		t.Fatal(lerr)
	}

	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := job.SpecDigest()
	if err != nil {
		t.Fatal(err)
	}

	// First session: run and checkpoint the whole job.
	sess, err := NewSession(SessionOptions{Workers: 2, Checkpoint: store, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	distr, derr := sess.Run(job)
	checkParity(t, name+"/checkpointed", local, lerr, distr, derr)
	cs := sess.CheckpointStatus()
	if cs == nil || cs.Saves == 0 || cs.Job != digest {
		t.Fatalf("checkpoint status after first run: %+v", cs)
	}
	steps := cs.Saves
	sess.Close()

	// Second session: the whole job fast-forwards, workers included.
	sess2, err := NewSession(SessionOptions{
		Workers: 2, Checkpoint: store, CheckpointEvery: 1, CheckpointResume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	distr2, derr2 := sess2.Run(job)
	checkParity(t, name+"/full-resume", local, lerr, distr2, derr2)
	cs2 := sess2.CheckpointStatus()
	if cs2 == nil || cs2.Resumed != steps || cs2.Saves != 0 {
		t.Fatalf("full resume status: %+v, want %d resumed / 0 saves", cs2, steps)
	}
	sess2.Close()

	// Truncate the manifest to a prefix of its steps — the durable state a
	// coordinator killed right after that flush would leave — and resume:
	// the prefix fast-forwards, the rest runs live on the cluster.
	man, err := store.Manifest(digest)
	if err != nil {
		t.Fatal(err)
	}
	keep := keepOf(steps)
	man.Steps = man.Steps[:keep]
	if err := store.WriteManifest(man); err != nil {
		t.Fatal(err)
	}
	sess3, err := NewSession(SessionOptions{
		Workers: 2, Checkpoint: store, CheckpointEvery: 1, CheckpointResume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess3.Close()
	distr3, derr3 := sess3.Run(job)
	checkParity(t, name+"/partial-resume", local, lerr, distr3, derr3)
	cs3 := sess3.CheckpointStatus()
	if cs3 == nil || cs3.Resumed != keep || cs3.Saves != steps-keep {
		t.Fatalf("partial resume status: %+v, want %d resumed / %d saves", cs3, keep, steps-keep)
	}
	// The re-saved suffix must reconstruct the identical manifest: same
	// step count, same content-addressed blobs.
	man2, err := store.Manifest(digest)
	if err != nil {
		t.Fatal(err)
	}
	if len(man2.Steps) != steps {
		t.Fatalf("manifest after partial resume has %d steps, want %d", len(man2.Steps), steps)
	}
	if warnings, err := store.Verify(""); err != nil || len(warnings) != 0 {
		t.Errorf("store verify: %v, %v", warnings, err)
	}

	// One checkpoint format across transports. The session-written store
	// fast-forwards every step in-process...
	saver, err := job.OpenSaver(store, checkpoint.SaverOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	inproc, ierr := job.Run(core.Params{}, saver)
	checkParity(t, name+"/session-store-in-process", local, lerr, inproc, ierr)
	if st := saver.Status(); st.Resumed != steps || st.Saves != 0 {
		t.Fatalf("in-process resume of a session store: %+v, want %d resumed / 0 saves", st, steps)
	}
	// ...and a store the in-process entry wrote fast-forwards every step on
	// a session, through a saver the caller opened.
	store2, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	saver, err = job.OpenSaver(store2, checkpoint.SaverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inproc, ierr = job.Run(core.Params{}, saver)
	checkParity(t, name+"/in-process-checkpointed", local, lerr, inproc, ierr)
	if saver, err = job.OpenSaver(store2, checkpoint.SaverOptions{Resume: true}); err != nil {
		t.Fatal(err)
	}
	distr4, derr4 := sess3.RunSaved(job, saver)
	checkParity(t, name+"/in-process-store-on-session", local, lerr, distr4, derr4)
	if cs4 := sess3.CheckpointStatus(); cs4 == nil || cs4.Job != digest || cs4.Resumed != steps || cs4.Saves != 0 {
		t.Fatalf("session resume of an in-process store: %+v, want %d resumed / 0 saves", cs4, steps)
	}
}

// TestTCPCheckpointTornStateFails pins the session-level contract: a torn
// manifest surfaces as its typed error from Run (the caller decides
// whether to restart fresh), never as a silent recompute or a hung
// cluster.
func TestTCPCheckpointTornStateFails(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	job := parityJobs()[0]
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := NewSession(SessionOptions{Workers: 2, Checkpoint: store, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(job); err != nil {
		t.Fatal(err)
	}
	sess.Close()

	digest, err := job.SpecDigest()
	if err != nil {
		t.Fatal(err)
	}
	tearManifest(t, store, digest)

	sess2, err := NewSession(SessionOptions{
		Workers: 2, Checkpoint: store, CheckpointEvery: 1, CheckpointResume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	_, rerr := sess2.Run(job)
	var te *checkpoint.TornManifestError
	if !errors.As(rerr, &te) {
		t.Fatalf("run over torn manifest: err = %v, want *TornManifestError", rerr)
	}

	// The session survives: the same job runs clean with resume off on a
	// fresh session (the torn manifest is simply overwritten).
	sess3, err := NewSession(SessionOptions{Workers: 2, Checkpoint: store, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess3.Close()
	local, lerr := runLocal(job)
	distr, derr := sess3.Run(job)
	checkParity(t, "ulam-mpc/restart-over-torn", local, lerr, distr, derr)
	if _, err := store.Manifest(digest); err != nil {
		t.Errorf("manifest not healed by restart: %v", err)
	}
}

// TestRegisteredNamesPinned pins the payload codec's name table. A
// checkpoint blob stores each payload's type id, which is the index of its
// name in this sorted table, so a name added or removed before an existing
// one shifts that one's id, and a store written earlier would decode its
// payloads as other types. A store is keyed by its job's SpecDigest, which
// encodes the dist.Job type id too: a change that moves dist.Job's id
// moves every digest, so no earlier store is found, and one that moves
// other ids but not dist.Job's must sort after every name here or change
// the checkpoint format's version. Sending chain tuples in batches
// (core.tuples) and the chain round's value and chain as one answer
// (core.answer) replaced three names with two, which moved dist.Job's id
// from 15 to 14: a store holding single-tuple records is never read as
// batches. Making core.Run the one first-round payload of Lemma 6, [20]
// and the LCS extension replaced three names (baseline.lcsJob,
// baseline.pairJob, core.editJob) with one, which moved dist.Job's id
// from 14 to 12 and every digest with it: an earlier store's rounds,
// whose first-round inputs were larger, run fresh instead of failing
// resume's input-shape check.
func TestRegisteredNamesPinned(t *testing.T) {
	want := []string{
		"ckpt.State", "ckpt.Step", "core.Run",
		"core.answer", "core.distMsg", "core.extJob",
		"core.repBatch", "core.runJob", "core.selMsg", "core.tuples", "core.ulamJob",
		"core.winJob", "dist.Job", "dist.resultDigest",
		"mpc.Bytes", "mpc.Int", "mpc.Ints",
	}
	if got := transport.RegisteredNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("registered names = %q\nwant %q", got, want)
	}
}
