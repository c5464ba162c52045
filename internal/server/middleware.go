package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"
)

// recoverMiddleware converts a handler panic into a 500 with a JSON body
// instead of tearing down the connection (and, under http.Server, the
// whole request goroutine's stack trace into the log). The panic counter
// is exported via /metrics.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.update(func(sn *Snapshot) { sn.Panics++ })
				s.log.Error("panic recovered",
					"requestId", RequestID(r.Context()),
					"path", r.URL.Path,
					"panic", fmt.Sprint(rec))
				// Headers may already be out; best effort.
				writeJSON(w, http.StatusInternalServerError,
					ErrorBody{Error: fmt.Sprintf("internal error: %v", rec)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// requestIDKey is the context key under which the request ID travels from
// the middleware through answer() into kernel-level log lines.
type requestIDKey struct{}

// RequestID returns the request ID threaded through the context by the
// logging middleware, or "" outside a request.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// newRequestID returns a 16-hex-char random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// validRequestID bounds what we accept from an inbound X-Request-Id: IDs
// are echoed into the response and every log line, so an uncapped value
// lets a client inflate logs or smuggle arbitrary content into them.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// statusRecorder captures the status code for the access log while passing
// Flush through so NDJSON batch streaming keeps working.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logMiddleware assigns each request an ID (honoring an inbound
// X-Request-Id when it passes validRequestID), threads it through the
// context, echoes it in the response, and writes one structured
// access-log line per request.
func (s *Server) logMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !validRequestID(id) {
			id = newRequestID()
		}
		ctx := context.WithValue(r.Context(), requestIDKey{}, id)
		w.Header().Set("X-Request-Id", id)
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r.WithContext(ctx))
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.log.Info("request",
			"requestId", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"durationMs", float64(time.Since(start).Nanoseconds())/1e6,
			"remote", r.RemoteAddr)
	})
}

// slogOrDiscard defaults a nil logger to one that drops everything, so
// embedding the server (and the test suite) stays silent by default.
func slogOrDiscard(l *slog.Logger) *slog.Logger {
	if l != nil {
		return l
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}
