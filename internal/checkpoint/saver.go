package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"mpcdist/internal/mpc"
	"mpcdist/internal/trace"
	"mpcdist/internal/transport"
)

// SaverOptions configure a job's Saver.
type SaverOptions struct {
	// Every is the flush cadence in steps: completed rounds are buffered
	// in memory and persisted (blobs plus an atomic manifest rewrite)
	// every Every-th step, so the durable store always holds a contiguous
	// step prefix. <= 0 means 1 (flush every round). Call Flush at job end
	// to persist the buffered tail regardless of cadence.
	Every int
	// Resume fast-forwards from the job's existing manifest (if any); when
	// false an existing manifest for the job is restarted from scratch.
	Resume bool
	// Revision is recorded in the manifest (buildinfo.Revision()), so
	// `ckpt verify` can flag cross-version resumes.
	Revision string
	// OnFlush, when non-nil, observes each durable flush (steps persisted,
	// blob bytes written) as it happens; Counters gives the totals. Called
	// with the saver's lock held; keep it cheap.
	OnFlush func(steps int, bytes int64)
}

// Saver is the mpc.Checkpointer: it fast-forwards the durable step prefix
// loaded at construction, then buffers and persists live rounds. One Saver
// serves one job (keyed by the job-spec digest); Cluster.Run drives it from
// the driving goroutine, but it locks anyway so status snapshots can race
// safely. A worker's Saver (NewReplayer) has no store: it only replays.
type Saver struct {
	mu      sync.Mutex
	store   *Store // nil on a worker: Save does nothing
	codec   *transport.Codec
	opts    SaverOptions
	man     *Manifest  // durable manifest (persisted steps only, until Flush)
	prefix  []wireStep // decoded durable steps available for fast-forward
	next    int        // next step index: resume cursor, then save counter
	pending []wireStep // completed live steps not yet flushed

	resumed int   // steps fast-forwarded this run
	saves   int   // steps persisted by this process
	bytes   int64 // blob bytes written by this process
}

// NewSaver opens (or restarts) the job's checkpoint state in the store.
// With Resume set, an existing manifest's steps are loaded and verified
// (blob hashes checked) for fast-forwarding; a torn manifest or corrupt
// blob surfaces as its typed error rather than silently recomputing. With
// Resume unset, any previous state for the job is superseded on the first
// flush.
func NewSaver(store *Store, job, algo string, opts SaverOptions) (*Saver, error) {
	if opts.Every <= 0 {
		opts.Every = 1
	}
	s := &Saver{
		store: store,
		codec: transport.NewCodec(),
		opts:  opts,
		man:   &Manifest{Job: job, Algo: algo, Revision: opts.Revision},
	}
	if !opts.Resume {
		return s, nil
	}
	man, err := store.Manifest(job)
	if errors.Is(err, os.ErrNotExist) {
		return s, nil // nothing durable yet: a resume of a never-started job runs fresh
	}
	if err != nil {
		return nil, err
	}
	if man.Algo != algo {
		return nil, &DivergenceError{Step: 0,
			Want: fmt.Sprintf("algo %q", man.Algo), Got: fmt.Sprintf("algo %q", algo)}
	}
	s.prefix = make([]wireStep, 0, len(man.Steps))
	for _, st := range man.Steps {
		blob, err := store.Blob(st.Blob)
		if err != nil {
			return nil, err
		}
		v, err := s.codec.Decode(blob)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: step %d blob: %w", st.Step, err)
		}
		ws, ok := v.(wireStep)
		if !ok {
			return nil, fmt.Errorf("checkpoint: step %d blob decoded to %T", st.Step, v)
		}
		if ws.Step != st.Step {
			return nil, &CorruptBlobError{Sum: st.Blob,
				Reason: fmt.Sprintf("holds step %d, manifest says %d", ws.Step, st.Step)}
		}
		s.prefix = append(s.prefix, ws)
	}
	s.man = man
	return s, nil
}

// Resume implements mpc.Checkpointer: fast-forward while the durable
// prefix lasts, verifying each live round against the stored step.
func (s *Saver) Resume(round int, name string, phase trace.Phase, inputs map[int][]mpc.Payload) (*mpc.RoundSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= len(s.prefix) {
		return nil, nil
	}
	ws := s.prefix[s.next]
	if err := matchStep(ws, round, name, phase, inputs); err != nil {
		return nil, err
	}
	snap, err := snapshotOf(s.codec, ws)
	if err != nil {
		return nil, err
	}
	s.next++
	s.resumed++
	return snap, nil
}

// Save implements mpc.Checkpointer: buffer the completed round and flush
// at the configured cadence. A store-less Saver saves nothing.
func (s *Saver) Save(snap *mpc.RoundSnapshot) error {
	if s.store == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	records, err := s.codec.AppendValue(nil, snap.Next)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding records: %w", err)
	}
	snap.Step = s.next
	s.pending = append(s.pending, wireStep{
		Step:    snap.Step,
		Round:   snap.Round,
		Name:    snap.Name,
		Phase:   string(snap.Phase),
		Stats:   snap.Stats,
		Records: records,
	})
	s.next++
	if len(s.pending) >= s.opts.Every {
		return s.flushLocked()
	}
	return nil
}

// Flush persists any buffered steps (job-end tail shorter than the
// cadence). Idempotent.
func (s *Saver) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return nil
	}
	return s.flushLocked()
}

func (s *Saver) flushLocked() error {
	steps, bytes := 0, int64(0)
	for _, ws := range s.pending {
		blob, err := s.codec.Encode(nil, ws)
		if err != nil {
			return fmt.Errorf("checkpoint: encoding step %d: %w", ws.Step, err)
		}
		sum, n, err := s.store.PutBlob(blob)
		if err != nil {
			return err
		}
		s.man.Steps = append(s.man.Steps, ManifestStep{
			Step: ws.Step, Round: ws.Round, Name: ws.Name, Phase: ws.Phase, Blob: sum,
		})
		steps++
		bytes += n
	}
	if err := s.store.WriteManifest(s.man); err != nil {
		// The manifest write failed after some blobs landed; drop the
		// appended references so a retry re-appends cleanly.
		s.man.Steps = s.man.Steps[:len(s.man.Steps)-steps]
		return err
	}
	s.pending = s.pending[:0]
	s.saves += steps
	s.bytes += bytes
	if s.opts.OnFlush != nil {
		s.opts.OnFlush(steps, bytes)
	}
	return nil
}

// ResumeState encodes the durable step prefix loaded at construction into
// the opaque bytes a coordinator ships inside Job.Resume, so workers
// fast-forward the identical rounds. nil when there is nothing to resume.
func (s *Saver) ResumeState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.prefix) == 0 {
		return nil, nil
	}
	return s.codec.Encode(nil, wireState{Steps: s.prefix})
}

// Status is the saver's live summary, served by the -status endpoints and
// rendered by cmd/mpctop.
type Status struct {
	Job     string `json:"job"`          // job-spec digest (hex)
	Steps   int    `json:"steps"`        // durable steps in the manifest
	Resumed int    `json:"resumedSteps"` // steps fast-forwarded this run
	Saves   int    `json:"savedSteps"`   // steps persisted by this process
	// LastRound and LastName locate the newest durable step.
	LastRound int    `json:"lastRound"`
	LastName  string `json:"lastName"`
	// BytesWritten counts this process's blob writes; StoreBytes/StoreBlobs
	// size the whole store (all jobs).
	BytesWritten int64 `json:"bytesWritten"`
	StoreBytes   int64 `json:"storeBytes"`
	StoreBlobs   int   `json:"storeBlobs"`
}

// Status snapshots the saver and its store.
func (s *Saver) Status() Status {
	s.mu.Lock()
	st := Status{
		Job:          s.man.Job,
		Steps:        len(s.man.Steps),
		Resumed:      s.resumed,
		Saves:        s.saves,
		BytesWritten: s.bytes,
	}
	if n := len(s.man.Steps); n > 0 {
		st.LastRound = s.man.Steps[n-1].Round
		st.LastName = s.man.Steps[n-1].Name
	}
	s.mu.Unlock()
	ss := s.store.Stats()
	st.StoreBytes, st.StoreBlobs = ss.Bytes, ss.Blobs
	return st
}

// Counters returns the saver's save/resume/bytes counters; the server and
// the bench harness read them once a job ends.
func (s *Saver) Counters() (saves, resumed int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saves, s.resumed, s.bytes
}

// NewReplayer decodes the resume bytes from Job.Resume into the
// worker-side mpc.Checkpointer: a store-less Saver that fast-forwards the
// shipped prefix through the same cursor as the coordinator's and persists
// nothing (the coordinator owns the store).
func NewReplayer(resume []byte) (*Saver, error) {
	codec := transport.NewCodec()
	v, err := codec.Decode(resume)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decoding resume state: %w", err)
	}
	st, ok := v.(wireState)
	if !ok {
		return nil, fmt.Errorf("checkpoint: resume state decoded to %T", v)
	}
	for i, ws := range st.Steps {
		if ws.Step != i {
			return nil, fmt.Errorf("checkpoint: resume state step %d at index %d", ws.Step, i)
		}
	}
	return &Saver{codec: codec, man: &Manifest{}, prefix: st.Steps}, nil
}
