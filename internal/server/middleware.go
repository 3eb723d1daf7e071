package server

import (
	"bytes"
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
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
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
			sw := &statusWriter{ResponseWriter: w}
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
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			logger.Printf("access remote=%s method=%s uri=%q status=%d bytes=%d dur=%s",
				r.RemoteAddr, r.Method, r.URL.RequestURI(), sw.Status(), sw.bytes, time.Since(start).Round(time.Microsecond))
		})
	}
}

// WithRecovery converts handler panics into JSON 500 responses (plus a
// panic counter and a stack-trace log line) instead of killing the process.
// It must sit outside WithTimeout, which re-panics on its caller's
// goroutine so panics from the handler goroutine land here.
func WithRecovery(reg *obs.Registry, logger *log.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
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
// immediately with 503 + Retry-After rather than queued unboundedly. n <= 0
// disables the limiter.
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

// bufferedResponse accumulates a handler's response in memory so WithTimeout
// can discard it wholesale if the deadline fires first; a response is either
// delivered complete or replaced by the 504, never interleaved.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newBufferedResponse() *bufferedResponse {
	return &bufferedResponse{header: make(http.Header)}
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.body.Write(p)
}

func (b *bufferedResponse) copyTo(w http.ResponseWriter) {
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if b.status == 0 {
		b.status = http.StatusOK
	}
	w.WriteHeader(b.status)
	w.Write(b.body.Bytes())
}

// WithTimeout enforces a per-request deadline d: the deadline is installed
// on the request context (honored by the System.*Context search entry
// points) and, if it fires before the handler finishes, the client gets a
// JSON 504 while the abandoned handler's buffered output is discarded.
// Handler panics are re-raised on the caller's goroutine so an outer
// WithRecovery still catches them. d <= 0 disables the timeout.
func WithTimeout(d time.Duration) Middleware {
	if d <= 0 {
		return func(next http.Handler) http.Handler { return next }
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			r = r.WithContext(ctx)

			buf := newBufferedResponse()
			done := make(chan struct{})
			panicked := make(chan any, 1)
			go func() {
				defer func() {
					if v := recover(); v != nil {
						panicked <- v
						return
					}
					close(done)
				}()
				next.ServeHTTP(buf, r)
			}()

			select {
			case v := <-panicked:
				panic(v)
			case <-done:
				buf.copyTo(w)
			case <-ctx.Done():
				writeJSONStatus(w, http.StatusGatewayTimeout,
					map[string]string{"error": "request timed out"})
			}
		})
	}
}
