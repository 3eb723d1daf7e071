package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// NewHTTPServer returns an http.Server with production timeouts configured,
// replacing the bare http.ListenAndServe a slow-loris client could starve:
// ReadHeaderTimeout bounds header arrival, ReadTimeout the full request
// read, IdleTimeout reclaims keep-alive connections, and WriteTimeout is
// the per-request timeout plus 5 s (unbounded when reqTimeout <= 0, i.e.
// the handler timeout is disabled). WithTimeout answers 504 when a handler
// returns, so WriteTimeout is what bounds a handler that never polls its
// context (see WithTimeout): a response not written within reqTimeout + 5 s
// of the request fails to send, and the client's connection is closed
// instead.
func NewHTTPServer(addr string, h http.Handler, reqTimeout time.Duration) *http.Server {
	writeTimeout := time.Duration(0)
	if reqTimeout > 0 {
		writeTimeout = reqTimeout + 5*time.Second
	}
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       120 * time.Second,
	}
}

// Serve listens on srv.Addr and runs until ctx is canceled (e.g. by
// SIGINT/SIGTERM via signal.NotifyContext), then drains gracefully: the
// listener closes immediately while in-flight requests get up to grace to
// complete. Returns nil on a clean drain.
func Serve(ctx context.Context, srv *http.Server, grace time.Duration) error {
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		return err
	}
	return ServeListener(ctx, srv, ln, grace)
}

// ServeListener is Serve over an existing listener — the testable core, and
// the entry point when the caller needs the bound address (e.g. ":0").
func ServeListener(ctx context.Context, srv *http.Server, ln net.Listener, grace time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		err := srv.Shutdown(sctx)
		<-errc // srv.Serve has returned http.ErrServerClosed
		return err
	}
}
