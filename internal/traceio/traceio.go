// Package traceio persists trace exports to disk with full error
// surfacing. Trace exports (trace.ClusterTrace) implement io.WriterTo;
// the commands that flush them must not swallow a failed write — a
// truncated Chrome trace parses as an empty timeline in Perfetto, which
// reads as "the run did nothing" rather than "the flush failed". Writes go
// through internal/atomicio (temp file + fsync + rename), so a failure —
// or a crash mid-write — never replaces or truncates an existing export,
// and no tool ever ingests a partial trace.
package traceio

import (
	"fmt"
	"io"

	"mpcdist/internal/atomicio"
)

// WriteFile writes src's export to path atomically and syncs it to stable
// storage. On any failure the previous file (if any) survives untouched
// and the returned error names the failing step and the path; callers
// should exit nonzero on it.
func WriteFile(path string, src io.WriterTo) error {
	if err := atomicio.WriteTo(path, src, 0o644); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	return nil
}
