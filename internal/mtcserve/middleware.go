package mtcserve

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// ctxKey scopes context values set by the middleware.
type ctxKey int

const requestIDKey ctxKey = iota

// reqCounter numbers generated request IDs; process-unique is all the
// correlation between a log line and an error envelope needs.
var reqCounter atomic.Uint64

// RequestIDFrom returns the request ID the middleware attached, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// statusWriter captures the response status for the access log. It
// forwards Flush so the NDJSON event stream keeps working through the
// middleware chain.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// middleware wraps the route table with the cross-cutting concerns of
// the v1 API: a request ID on every request (honouring a client-supplied
// X-Request-Id), a structured access-log line per request, a global
// request-body size limit, and the idle-session sweep, run before the
// route so a request for an expired session finds it gone.
func (s *Server) middleware(next http.Handler) http.Handler {
	limited := http.MaxBytesHandler(next, s.maxBodyBytes())
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = fmt.Sprintf("req-%06d", reqCounter.Add(1))
		}
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		if s.sweepDue(start) {
			if n := s.sweepIdleSessions(start); n > 0 {
				s.logger().Info("evicted idle sessions", "count", n, "request_id", id)
			}
		}
		limited.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
		s.logger().Info("http",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur_ms", float64(time.Since(start))/float64(time.Millisecond),
			"request_id", id,
		)
	})
}
