package checkpoint

import (
	"fmt"

	"mpcdist/internal/mpc"
	"mpcdist/internal/trace"
	"mpcdist/internal/transport"
)

// Snapshots go to disk (and into Job.Resume) through the same
// self-describing payload codec the transport uses for round traffic, so
// any payload type that can cross the wire can be checkpointed with no
// extra registration, and the encoding is deterministic: equal snapshots
// produce equal bytes, which is what makes the blobs content-addressable.

// wireStep is one completed round in blob / resume-state form.
type wireStep struct {
	Step    int
	Round   int
	Name    string
	Phase   string
	Stats   mpc.RoundStats
	Records []byte // the codec's encoding of the post-shuffle record set
}

// wireState is the resume payload a coordinator ships to workers inside
// the job spec: the durable step prefix, so every party fast-forwards the
// identical rounds.
type wireState struct {
	Steps []wireStep
}

func init() {
	transport.Register("ckpt.Step", wireStep{})
	transport.Register("ckpt.State", wireState{})
}

// snapshotOf converts a decoded step back into the cluster's resume shape.
// The record set is the codec's encoding of the map itself (machine ids
// in sorted order, each with its payload list in delivery order). Next is
// never nil, even for an empty set: a driver may write into the previous
// round's outputs (largeGuess.joinInputs does).
func snapshotOf(c *transport.Codec, ws wireStep) (*mpc.RoundSnapshot, error) {
	var records map[int][]mpc.Payload
	if err := c.ReadValue(ws.Records, &records); err != nil {
		return nil, fmt.Errorf("checkpoint: decoding records: %w", err)
	}
	if records == nil {
		records = map[int][]mpc.Payload{}
	}
	return &mpc.RoundSnapshot{
		Step:  ws.Step,
		Round: ws.Round,
		Name:  ws.Name,
		Phase: trace.Phase(ws.Phase),
		Stats: ws.Stats,
		Next:  records,
	}, nil
}

// matchStep verifies that the live round the cluster is about to run is
// the one the stored step recorded: its round, name and phase, and the
// shape of its inputs, which the step's stats hold as Machines and
// MaxInWords. Anything else means the job spec (or binary) diverged from
// the run that wrote the checkpoint: a build with another machine layout
// would read the stored records under the wrong machine ids.
func matchStep(ws wireStep, round int, name string, phase trace.Phase, inputs map[int][]mpc.Payload) error {
	if ws.Round != round || ws.Name != name || ws.Phase != string(phase) {
		return &DivergenceError{
			Step: ws.Step,
			Want: fmt.Sprintf("round %d %q phase=%s", ws.Round, ws.Name, ws.Phase),
			Got:  fmt.Sprintf("round %d %q phase=%s", round, name, phase),
		}
	}
	maxIn := 0
	for _, in := range inputs {
		maxIn = max(maxIn, mpc.PayloadWords(in))
	}
	if ws.Stats.Machines != len(inputs) || ws.Stats.MaxInWords != maxIn {
		return &DivergenceError{
			Step: ws.Step,
			Want: fmt.Sprintf("round %q on %d machines, largest input %d words", ws.Name, ws.Stats.Machines, ws.Stats.MaxInWords),
			Got:  fmt.Sprintf("round %q on %d machines, largest input %d words", name, len(inputs), maxIn),
		}
	}
	return nil
}

// DivergenceError reports a resume whose live execution does not match the
// stored step sequence: the checkpoint was written by a different job spec
// or a diverged binary, and fast-forwarding would corrupt the run.
type DivergenceError struct {
	Step int
	Want string // what the checkpoint recorded
	Got  string // what the live run is about to execute
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("checkpoint: step %d diverged: stored %s, live %s", e.Step, e.Want, e.Got)
}
