package server

import (
	"context"
	"log"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/obs"
)

// Middleware wraps an http.Handler with one serving concern. Compose with
// Chain; cmd/gksd assembles the production stack
// metrics → access log → recovery → limiter → timeout → API handler.
// Every layer runs the request on the goroutine net/http gave it, and the
// layers that watch the response share one statusWriter: the outermost
// installs it and the inner ones reuse it.
type Middleware func(http.Handler) http.Handler

// Chain applies mw to h so that mw[0] is the outermost layer.
func Chain(h http.Handler, mw ...Middleware) http.Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// statusWriter records the status code and body size flowing through a
// ResponseWriter so the logging and metrics layers can observe outcomes.
// Inside WithTimeout it also holds the request's deadline: a response that
// has not begun when the deadline passes is replaced by the JSON 504.
type statusWriter struct {
	http.ResponseWriter
	status   int
	bytes    int64
	deadline context.Context // WithTimeout's request context, nil outside it
	late     bool            // the 504 went out in the handler's place
}

// recorder returns the statusWriter an outer layer installed as w, or wraps
// w in a new one, so a chain allocates one per request.
func recorder(w http.ResponseWriter) *statusWriter {
	if sw, ok := w.(*statusWriter); ok {
		return sw
	}
	return &statusWriter{ResponseWriter: w}
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.begin(code) {
		sw.ResponseWriter.WriteHeader(code)
	}
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if !sw.begin(http.StatusOK) {
		return 0, http.ErrHandlerTimeout
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

// begin records the status of the first header or body write and reports
// whether the handler's output goes out: not once the 504 has replaced it.
func (sw *statusWriter) begin(code int) bool {
	if sw.status == 0 && !sw.timeout() {
		sw.status = code
	}
	return !sw.late
}

// timeout sends the JSON 504 in the handler's place, dropping the headers
// it set, if nothing has been written yet and the deadline has passed. It
// checks for DeadlineExceeded, not any error: WithTimeout's deferred cancel
// runs before WithRecovery answers a panic, and that 500 must stand.
func (sw *statusWriter) timeout() bool {
	if sw.status != 0 || sw.deadline == nil || sw.deadline.Err() != context.DeadlineExceeded {
		return false
	}
	clear(sw.Header())
	sw.deadline = nil
	writeJSONStatus(sw, http.StatusGatewayTimeout, map[string]string{"error": "request timed out"})
	sw.late = true
	return true
}

// Unwrap exposes the underlying writer so http.NewResponseController can
// reach Flush and SetWriteDeadline through the wrapper — the replication
// stream needs both from inside the middleware chain.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

func (sw *statusWriter) Status() int {
	if sw.status == 0 {
		return http.StatusOK
	}
	return sw.status
}

// endpointLabel collapses unknown paths to "other" so a path-scanning
// client cannot explode the metrics label space.
func endpointLabel(path string) string {
	for _, ep := range endpoints {
		if path == ep {
			return ep
		}
	}
	return "other"
}

// WithMetrics records per-endpoint request counts, error counts, and
// latency into reg. Place it outermost so it observes the final status of
// recovered panics, shed load, and timeouts.
func WithMetrics(reg *obs.Registry) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := recorder(w)
			start := time.Now()
			next.ServeHTTP(sw, r)
			reg.ObserveRequest(endpointLabel(r.URL.Path), sw.Status(), time.Since(start))
		})
	}
}

// WithAccessLog writes one structured line per request to logger.
func WithAccessLog(logger *log.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := recorder(w)
			start := time.Now()
			next.ServeHTTP(sw, r)
			logger.Printf("access remote=%s method=%s uri=%q status=%d bytes=%d dur=%s",
				r.RemoteAddr, r.Method, r.URL.RequestURI(), sw.Status(), sw.bytes, time.Since(start).Round(time.Microsecond))
		})
	}
}

// WithRecovery converts handler panics into JSON 500 responses (plus a
// panic counter and a stack-trace log line) instead of killing the process.
// No layer starts a goroutine, so a panic anywhere inside it unwinds to it
// on the request goroutine.
func WithRecovery(reg *obs.Registry, logger *log.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := recorder(w)
			defer func() {
				if v := recover(); v != nil {
					reg.IncPanic()
					if logger != nil {
						logger.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
					}
					if sw.status == 0 { // nothing written yet: we can still answer
						writeJSONStatus(sw, http.StatusInternalServerError,
							map[string]string{"error": "internal server error"})
					}
				}
			}()
			next.ServeHTTP(sw, r)
		})
	}
}

// WithLimit caps concurrent in-flight requests at n; excess load is shed
// immediately with 503 + Retry-After rather than queued unboundedly. A
// request holds its slot until its handler returns, past a 504 included.
// n <= 0 disables the limiter.
func WithLimit(n int, reg *obs.Registry) Middleware {
	if n <= 0 {
		return func(next http.Handler) http.Handler { return next }
	}
	sem := make(chan struct{}, n)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
				reg.AddInFlight(1)
				defer reg.AddInFlight(-1)
				next.ServeHTTP(w, r)
			default:
				reg.IncShed()
				w.Header().Set("Retry-After", "1")
				writeJSONStatus(w, http.StatusServiceUnavailable,
					map[string]string{"error": "server at capacity, retry shortly"})
			}
		})
	}
}

// WithTimeout enforces a per-request deadline d in place. The deadline is
// installed on the request context, which every engine stage polls, so a
// search past it returns early and its handler answers 504. The handler
// runs inline, and every handler encodes its body before it writes, so a
// response is either complete or the 504: one not begun by the deadline
// is replaced by the JSON 504, and so is a handler that writes nothing.
//
// Some handlers never poll ctx: /baselines (SLCA and ELCA), /types,
// /suggest (including the first call's vocabulary build), /schema
// (schema.Infer over every node), /stats, and the DI and refinements that
// /insights and /refine run after their search. Their 504 arrives when
// they return; what bounds one that runs on is the server's WriteTimeout
// (NewHTTPServer). d <= 0 disables the timeout.
func WithTimeout(d time.Duration) Middleware {
	if d <= 0 {
		return func(next http.Handler) http.Handler { return next }
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			sw := recorder(w)
			sw.deadline = ctx
			next.ServeHTTP(sw, r.WithContext(ctx))
			sw.timeout()
		})
	}
}
