package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcdist/internal/mpc"
	"mpcdist/internal/trace"
)

func openTestStore(t *testing.T) *Store {
	t.Helper()
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestBlobRoundTripAndDedup(t *testing.T) {
	store := openTestStore(t)
	data := []byte("the round's records")
	sum, n, err := store.PutBlob(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) {
		t.Errorf("first put wrote %d bytes, want %d", n, len(data))
	}
	// Content addressing: the same bytes are already there.
	sum2, n2, err := store.PutBlob(data)
	if err != nil {
		t.Fatal(err)
	}
	if sum2 != sum || n2 != 0 {
		t.Errorf("dedup put: sum=%s written=%d, want %s/0", sum2, n2, sum)
	}
	got, err := store.Blob(sum)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Errorf("blob round trip: got %q", got)
	}
}

func TestCorruptBlobDetected(t *testing.T) {
	store := openTestStore(t)
	sum, _, err := store.PutBlob([]byte("records"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip the content under its address.
	if err := os.WriteFile(filepath.Join(store.Dir(), "blobs", sum), []byte("recorsd"), 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptBlobError
	if _, err := store.Blob(sum); !errors.As(err, &ce) {
		t.Fatalf("tampered blob read: err = %v (%T), want *CorruptBlobError", err, err)
	}
	if _, err := store.Blob(strings.Repeat("ab", 32)); !errors.As(err, &ce) || ce.Reason != "missing" {
		t.Fatalf("missing blob read: err = %v, want *CorruptBlobError{missing}", err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	store := openTestStore(t)
	if _, err := store.Manifest("nojob"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing manifest: err = %v, want os.ErrNotExist", err)
	}
	m := &Manifest{Job: "job1", Algo: "ulam-mpc", Revision: "abc123",
		Steps: []ManifestStep{{Step: 0, Round: 0, Name: "ulam", Phase: "candidates", Blob: "b0"}}}
	if err := store.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
	got, err := store.Manifest("job1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Algo != "ulam-mpc" || got.Revision != "abc123" || len(got.Steps) != 1 || got.Steps[0].Blob != "b0" {
		t.Errorf("manifest round trip: %+v", got)
	}
	jobs, err := store.Jobs()
	if err != nil || len(jobs) != 1 || jobs[0] != "job1" {
		t.Errorf("Jobs() = %v, %v", jobs, err)
	}
}

// TestTornManifestRejected drives every way a manifest can be untrustworthy
// through the typed-error path: each case must surface *TornManifestError,
// never a panic or a half-parsed manifest. Tampered bodies are built by
// editing a genuinely written manifest, so each case breaks exactly one
// invariant.
func TestTornManifestRejected(t *testing.T) {
	validJSON := func(t *testing.T, store *Store) []byte {
		t.Helper()
		m := &Manifest{Job: "job1", Algo: "ulam-mpc",
			Steps: []ManifestStep{{Step: 0, Name: "ulam", Phase: "candidates", Blob: "b0"}}}
		if err := store.WriteManifest(m); err != nil {
			t.Fatal(err)
		}
		buf, err := os.ReadFile(filepath.Join(store.Dir(), "manifests", "job1.json"))
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	cases := []struct {
		name string
		job  string // manifest path written; "" means job1
		body func(t *testing.T, store *Store) []byte
	}{
		{"truncated JSON", "", func(*testing.T, *Store) []byte {
			return []byte(`{"version":1,"job":"job1","algo":"ul`)
		}},
		{"wrong schema version", "", func(t *testing.T, store *Store) []byte {
			return []byte(strings.Replace(string(validJSON(t, store)), `"version": 1`, `"version": 99`, 1))
		}},
		{"checksum mismatch", "", func(t *testing.T, store *Store) []byte {
			// Edit a covered field; the recorded checksum goes stale.
			return []byte(strings.Replace(string(validJSON(t, store)), "ulam-mpc", "tampered", 1))
		}},
		{"wrong job name", "job2", func(t *testing.T, store *Store) []byte {
			// A valid job1 manifest copied over job2's path.
			return validJSON(t, store)
		}},
		{"non-contiguous steps", "", func(t *testing.T, store *Store) []byte {
			m := &Manifest{Job: "job1", Algo: "a",
				Steps: []ManifestStep{{Step: 0, Blob: "x"}, {Step: 2, Blob: "y"}}}
			if err := store.WriteManifest(m); err != nil {
				t.Fatal(err)
			}
			buf, err := os.ReadFile(filepath.Join(store.Dir(), "manifests", "job1.json"))
			if err != nil {
				t.Fatal(err)
			}
			return buf
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := openTestStore(t)
			job := tc.job
			if job == "" {
				job = "job1"
			}
			body := tc.body(t, store)
			if err := os.WriteFile(filepath.Join(store.Dir(), "manifests", job+".json"), body, 0o644); err != nil {
				t.Fatal(err)
			}
			var te *TornManifestError
			if _, err := store.Manifest(job); !errors.As(err, &te) {
				t.Fatalf("err = %v (%T), want *TornManifestError", err, err)
			}
		})
	}
}

func TestVerifyAndPrune(t *testing.T) {
	store := openTestStore(t)
	saver, err := NewSaver(store, "job1", "ulam-mpc", SaverOptions{Revision: "rev-old"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := saver.Save(testSnapshot(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := saver.Flush(); err != nil {
		t.Fatal(err)
	}

	// Clean store, other revision: warnings only.
	warnings, err := store.Verify("rev-new")
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "rev-old") {
		t.Errorf("warnings = %v, want one cross-revision warning", warnings)
	}

	// An orphan blob (no manifest references it) is prunable.
	if _, _, err := store.PutBlob([]byte("orphan")); err != nil {
		t.Fatal(err)
	}
	before := store.Stats()
	removed, freed, err := store.Prune()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || freed != int64(len("orphan")) {
		t.Errorf("prune removed %d blobs / %d bytes, want 1 / 6", removed, freed)
	}
	if after := store.Stats(); after.Blobs != before.Blobs-1 {
		t.Errorf("stats after prune: %+v (before %+v)", after, before)
	}

	// Corrupting a referenced blob turns verify into a hard error.
	m, err := store.Manifest("job1")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store.Dir(), "blobs", m.Steps[1].Blob), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptBlobError
	if _, err := store.Verify(""); !errors.As(err, &ce) {
		t.Fatalf("verify of corrupted store: err = %v, want *CorruptBlobError", err)
	}
}

func TestSaverFlushCadence(t *testing.T) {
	store := openTestStore(t)
	var flushes []int
	saver, err := NewSaver(store, "job1", "ulam-mpc", SaverOptions{
		Every:   3,
		OnFlush: func(steps int, bytes int64) { flushes = append(flushes, steps) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := saver.Save(testSnapshot(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 7 steps at cadence 3: two durable flushes of 3, one buffered.
	m, err := store.Manifest("job1")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Steps) != 6 {
		t.Errorf("durable steps before Flush = %d, want 6", len(m.Steps))
	}
	if err := saver.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := saver.Flush(); err != nil { // idempotent
		t.Fatal(err)
	}
	m, err = store.Manifest("job1")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Steps) != 7 {
		t.Errorf("durable steps after Flush = %d, want 7", len(m.Steps))
	}
	for i, st := range m.Steps {
		if st.Step != i {
			t.Errorf("step %d recorded as %d", i, st.Step)
		}
	}
	if len(flushes) != 3 || flushes[0] != 3 || flushes[1] != 3 || flushes[2] != 1 {
		t.Errorf("OnFlush steps = %v, want [3 3 1]", flushes)
	}
	saves, resumed, bytes := saver.Counters()
	if saves != 7 || resumed != 0 || bytes <= 0 {
		t.Errorf("counters = %d saves, %d resumed, %d bytes", saves, resumed, bytes)
	}
	if st := saver.Status(); st.Steps != 7 || st.LastRound != 6 || st.Job != "job1" {
		t.Errorf("status = %+v", st)
	}
}

// TestSaverResumeRoundTrip persists a step sequence, reopens the job with
// Resume, and checks the snapshots fast-forward bit-identically — then that
// a diverged live round is refused.
func TestSaverResumeRoundTrip(t *testing.T) {
	store := openTestStore(t)
	saver, err := NewSaver(store, "job1", "ulam-mpc", SaverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*mpc.RoundSnapshot, 4)
	for i := range want {
		want[i] = testSnapshot(i)
		if err := saver.Save(want[i]); err != nil {
			t.Fatal(err)
		}
	}

	re, err := NewSaver(store, "job1", "ulam-mpc", SaverOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		snap, err := re.Resume(w.Round, w.Name, w.Phase, nil)
		if err != nil {
			t.Fatalf("resume step %d: %v", i, err)
		}
		if snap == nil {
			t.Fatalf("resume step %d: prefix exhausted early", i)
		}
		if snap.Round != w.Round || snap.Stats.CommWords != w.Stats.CommWords {
			t.Errorf("step %d: resumed %+v, want %+v", i, snap, w)
		}
		got := snap.Next[i][0].(mpc.Ints)
		if len(got) != 2 || got[0] != i || got[1] != i+1 {
			t.Errorf("step %d records: %v", i, got)
		}
	}
	// Prefix exhausted: live execution takes over.
	if snap, err := re.Resume(99, "x", "y", nil); snap != nil || err != nil {
		t.Errorf("past prefix: snap=%v err=%v, want nil/nil", snap, err)
	}

	// A diverged live round must be refused, not fast-forwarded.
	re2, err := NewSaver(store, "job1", "ulam-mpc", SaverOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	var de *DivergenceError
	if _, err := re2.Resume(0, "other-pipeline", "candidates", nil); !errors.As(err, &de) {
		t.Fatalf("diverged resume: err = %v, want *DivergenceError", err)
	}

	// An algo mismatch is refused at construction.
	if _, err := NewSaver(store, "job1", "edit-mpc", SaverOptions{Resume: true}); !errors.As(err, &de) {
		t.Fatalf("algo mismatch: err = %v, want *DivergenceError", err)
	}

	// Resuming a job with no durable state runs fresh.
	fresh, err := NewSaver(store, "jobX", "ulam-mpc", SaverOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := fresh.Resume(0, "ulam", "candidates", nil); snap != nil || err != nil {
		t.Errorf("fresh resume: snap=%v err=%v, want nil/nil", snap, err)
	}
}

// TestReplayerRoundTrip ships a saver's resume state the way a coordinator
// ships Job.Resume, and checks the worker-side replayer fast-forwards the
// same steps and refuses garbage.
func TestReplayerRoundTrip(t *testing.T) {
	store := openTestStore(t)
	saver, err := NewSaver(store, "job1", "ulam-mpc", SaverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if state, err := saver.ResumeState(); state != nil || err != nil {
		t.Fatalf("empty saver resume state: %v, %v", state, err)
	}
	for i := 0; i < 3; i++ {
		if err := saver.Save(testSnapshot(i)); err != nil {
			t.Fatal(err)
		}
	}

	re, err := NewSaver(store, "job1", "ulam-mpc", SaverOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	state, err := re.ResumeState()
	if err != nil || state == nil {
		t.Fatalf("resume state: %v, %v", state, err)
	}
	rp, err := NewReplayer(state)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		snap, err := rp.Resume(i, "ulam", trace.Phase("candidates"), nil)
		if err != nil || snap == nil {
			t.Fatalf("replayer step %d: %v, %v", i, snap, err)
		}
		if err := rp.Save(snap); err != nil { // workers persist nothing
			t.Fatal(err)
		}
	}
	if snap, err := rp.Resume(3, "ulam", "candidates", nil); snap != nil || err != nil {
		t.Errorf("replayer past prefix: %v, %v", snap, err)
	}

	if _, err := NewReplayer([]byte("not a codec payload")); err == nil {
		t.Error("garbage resume state accepted")
	}
}

// TestSaverSkipsTornStateOnResumeError pins the typed-error contract the
// dist/server layers build their self-healing on: resuming over a torn
// manifest or corrupt blob fails with the typed error (so the caller can
// choose to restart fresh) instead of panicking or resuming garbage.
func TestSaverRefusesTornState(t *testing.T) {
	store := openTestStore(t)
	saver, err := NewSaver(store, "job1", "ulam-mpc", SaverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := saver.Save(testSnapshot(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Corrupt the first referenced blob.
	m, err := store.Manifest("job1")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store.Dir(), "blobs", m.Steps[0].Blob), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptBlobError
	if _, err := NewSaver(store, "job1", "ulam-mpc", SaverOptions{Resume: true}); !errors.As(err, &ce) {
		t.Fatalf("resume over corrupt blob: err = %v, want *CorruptBlobError", err)
	}

	// Tear the manifest itself.
	path := filepath.Join(store.Dir(), "manifests", "job1.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"job":"job1"`), 0o644); err != nil {
		t.Fatal(err)
	}
	var te *TornManifestError
	if _, err := NewSaver(store, "job1", "ulam-mpc", SaverOptions{Resume: true}); !errors.As(err, &te) {
		t.Fatalf("resume over torn manifest: err = %v, want *TornManifestError", err)
	}

	// Restart (Resume off) ignores the torn state entirely.
	fresh, err := NewSaver(store, "job1", "ulam-mpc", SaverOptions{})
	if err != nil {
		t.Fatalf("fresh saver over torn state: %v", err)
	}
	if err := fresh.Save(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	if m, err := store.Manifest("job1"); err != nil || len(m.Steps) != 1 {
		t.Fatalf("fresh manifest after torn state: %+v, %v", m, err)
	}
}

// testSnapshot builds a small synthetic completed round: step i sends the
// payload [i, i+1] to machine i.
func testSnapshot(i int) *mpc.RoundSnapshot {
	return &mpc.RoundSnapshot{
		Round: i,
		Name:  "ulam",
		Phase: trace.Phase("candidates"),
		Stats: mpc.RoundStats{CommWords: int64(10 * (i + 1))},
		Next:  map[int][]mpc.Payload{i: {mpc.Ints{i, i + 1}}},
	}
}
