package serve

import (
	"net/http"
	"runtime/debug"

	"swcc/internal/obs"
)

// statusRecorder captures the status code and byte count a handler wrote
// so the access log and metrics can report them.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

// WriteHeader records the first status code a handler sets.
func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

// Write counts response bytes, defaulting the status to 200 the way
// net/http does when a handler writes without calling WriteHeader.
func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// traceHeader is the request/response header carrying the trace ID.
const traceHeader = "X-Request-ID"

// instrument wraps the handler tree with trace-ID assignment, panic
// recovery, the in-flight gauge, the latency histograms, per-(path,
// code) counters, and a structured access log line per request.
//
// Trace semantics: a syntactically valid client X-Request-ID (see
// obs.ValidTraceID) is adopted as-is; a missing or invalid one is
// replaced with a generated ID. Either way the ID is set on the
// X-Request-ID response header before the handler runs, stamped on the
// access log line, and attached to the request context so it follows
// the work into internal/sweep.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace := r.Header.Get(traceHeader)
		if !obs.ValidTraceID(trace) {
			trace = obs.NewTraceID()
		}
		w.Header().Set(traceHeader, trace)
		r = r.WithContext(obs.WithTraceID(r.Context(), trace))

		rec := &statusRecorder{ResponseWriter: w}
		sp := obs.Start()
		s.met.requestStarted()
		defer func() {
			if p := recover(); p != nil {
				s.log.Error("panic serving request",
					"path", r.URL.Path, "trace", trace,
					"panic", p, "stack", string(debug.Stack()))
				if rec.status == 0 {
					s.writeJSON(rec, http.StatusInternalServerError,
						errorResponse{Error: "internal error"})
				}
			}
			elapsed := sp.Elapsed()
			if rec.status == 0 {
				// Handler wrote nothing; net/http will send 200.
				rec.status = http.StatusOK
			}
			s.met.requestDone(r.URL.Path, rec.status, elapsed.Seconds())
			s.log.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"duration_ms", float64(elapsed.Microseconds())/1000,
				"bytes", rec.bytes,
				"remote", r.RemoteAddr,
				"trace", trace,
			)
		}()
		next.ServeHTTP(rec, r)
	})
}
