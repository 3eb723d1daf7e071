// Live document ingestion over HTTP: the write surface that turns gksd from
// a read-only snapshot server into an online system.
//
//	POST   /admin/docs          {"name": "...", "xml": "..."}   add or replace
//	DELETE /admin/docs/{name}                                   delete
//
// Every mutation builds the successor system copy-on-write (searches keep
// running on the old one) and is made durable before it is acknowledged.
// Durability comes in two flavors:
//
//   - WAL mode (EnableWAL): the mutation is appended to the write-ahead
//     log and swapped into service under the Reloader's mutex, then the
//     handler waits — outside the lock — for the record's group-commit
//     fsync before acknowledging. Concurrent writers share flushes, so
//     throughput no longer collapses under the cost of rewriting the
//     whole snapshot per mutation; a background checkpointer folds the
//     log into a snapshot and truncates it (see checkpoint.go).
//   - Legacy snapshot mode (persist != nil, no WAL): the whole successor
//     snapshot is written through the crash-safe snapshot writer before
//     the swap, exactly as before.
//
// Either way a crash leaves recoverable state on disk — never a torn
// file — and a failed append/persist leaves the old system serving,
// exactly like a rejected reload: the generation and document gauges do
// not move. Mutations serialize with /admin/reload and SIGHUP through
// the Reloader's mutex, so a reload can never interleave with a
// half-applied ingest.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strings"
	"time"

	gks "repro"
	"repro/internal/obs"
	"repro/internal/wal"
)

// maxDocBody bounds the /admin/docs request body. Documents above this are
// batch-indexing territory (gks index + /admin/reload), not live ingest.
const maxDocBody = 8 << 20

// Ingester serves the /admin/docs mutation endpoints against a Handler's
// live system. persist writes the successor system durably before it is
// swapped into service; nil persist means the deployment is in-memory
// (booted from raw files) and mutations are acknowledged without
// durability — the response says which. reg and logger may be nil.
type Ingester struct {
	rl      *Reloader
	persist func(gks.Searcher) error
	reg     *obs.Registry
	logger  *log.Logger
	maxBody int64

	wal       *wal.Log // when set, mutations acknowledge on log durability
	onDurable func()   // notified after each durable mutation (checkpoint trigger)
}

// NewIngester builds the mutation surface for the Reloader's handler. The
// Reloader is required (not just a Handler) because its mutex is the one
// lock serializing every serving-state transition.
func NewIngester(rl *Reloader, persist func(gks.Searcher) error, reg *obs.Registry, logger *log.Logger) *Ingester {
	return &Ingester{rl: rl, persist: persist, reg: reg, logger: logger, maxBody: maxDocBody}
}

// EnableWAL switches the durability contract from snapshot-per-mutation to
// write-ahead logging: mutations append to l and acknowledge when their
// record's group-commit fsync lands; the persist func is no longer called
// on the mutation path (the checkpointer owns it). onDurable, if non-nil,
// runs after every acknowledged mutation — the checkpointer's trigger.
func (ing *Ingester) EnableWAL(l *wal.Log, onDurable func()) {
	ing.wal = l
	ing.onDurable = onDurable
}

// Handler routes /admin/docs (POST) and /admin/docs/{name} (DELETE).
func (ing *Ingester) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/admin/docs")
		rest = strings.TrimPrefix(rest, "/")
		if rest == "" {
			if r.Method != http.MethodPost {
				w.Header().Set("Allow", "POST")
				writeJSONStatus(w, http.StatusMethodNotAllowed, map[string]any{
					"error": "document upsert requires POST",
				})
				return
			}
			ing.handleUpsert(w, r)
			return
		}
		if r.Method != http.MethodDelete {
			w.Header().Set("Allow", "DELETE")
			writeJSONStatus(w, http.StatusMethodNotAllowed, map[string]any{
				"error": "document delete requires DELETE",
			})
			return
		}
		name, err := url.PathUnescape(rest)
		if err != nil {
			clientError(w, fmt.Errorf("invalid document name escape: %w", err))
			return
		}
		ing.handleDelete(w, name)
	})
}

// docRequest is the wire form of a document upsert.
type docRequest struct {
	Name string `json:"name"`
	XML  string `json:"xml"`
}

// parseDocRequest validates an upsert body: strict JSON (unknown fields and
// trailing garbage rejected), a clean non-empty name, non-empty XML. It is
// the fuzz target guarding the admin surface — it must never panic and
// never accept a name that would corrupt a snapshot manifest or a log line.
func parseDocRequest(body []byte) (name, src string, err error) {
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	var req docRequest
	if err := dec.Decode(&req); err != nil {
		return "", "", fmt.Errorf("invalid JSON body: %w", err)
	}
	if dec.More() {
		return "", "", errors.New("invalid JSON body: trailing data after document object")
	}
	name = strings.TrimSpace(req.Name)
	switch {
	case name == "":
		return "", "", errors.New("missing document name")
	case len(name) > 512:
		return "", "", fmt.Errorf("document name too long (%d bytes, max 512)", len(name))
	case strings.ContainsAny(name, "\x00\n\r"):
		return "", "", errors.New("document name contains control characters")
	}
	if strings.TrimSpace(req.XML) == "" {
		return "", "", errors.New("missing xml document body")
	}
	return name, req.XML, nil
}

func (ing *Ingester) handleUpsert(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, ing.maxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSONStatus(w, http.StatusRequestEntityTooLarge, map[string]any{
				"error": fmt.Sprintf("document body exceeds %d bytes", ing.maxBody),
			})
			return
		}
		clientError(w, fmt.Errorf("reading body: %w", err))
		return
	}
	name, src, err := parseDocRequest(body)
	if err != nil {
		clientError(w, err)
		return
	}
	doc, err := gks.ParseDocumentString(src, name)
	if err != nil {
		clientError(w, fmt.Errorf("parsing document %q: %w", name, err))
		return
	}

	start := time.Now()
	ing.rl.mu.Lock()
	next, replaced, err := ing.rl.h.Searcher().Upsert(doc)
	if err != nil {
		ing.rl.mu.Unlock()
		ing.observe("upsert", false, start)
		clientError(w, err)
		return
	}
	op := "add"
	if replaced {
		op = "replace"
	}
	ing.commit(w, "upsert", op, name, src, next, start)
}

func (ing *Ingester) handleDelete(w http.ResponseWriter, name string) {
	start := time.Now()
	ing.rl.mu.Lock()
	next, err := ing.rl.h.Searcher().Remove(name)
	if err != nil {
		ing.rl.mu.Unlock()
		ing.observe("delete", false, start)
		switch {
		case errors.Is(err, gks.ErrDocNotFound):
			writeError(w, &statusError{http.StatusNotFound, err})
		case errors.Is(err, gks.ErrLastDocument):
			// Deleting the corpus out from under a serving index is almost
			// certainly an operator mistake; 409 keeps it a deliberate act
			// (reboot the daemon empty) rather than one stray curl.
			writeError(w, &statusError{http.StatusConflict, err})
		default:
			serverError(w, err)
		}
		return
	}
	ing.commit(w, "delete", "delete", name, "", next, start)
}

// commit runs the durability-then-swap tail shared by every mutation.
// Callers hold rl.mu; commit releases it.
//
// The ordering is the durability contract, audited both ways:
//
//   - A failed WAL append or snapshot persist must leave the serving
//     state — and everything that reports it — untouched: no swap, no
//     gks_docs / generation gauge movement, and the error message reads
//     the generation AFTER the failure so it names the snapshot actually
//     still serving.
//   - On the WAL path the swap and gauge updates happen under rl.mu, but
//     the group-commit fsync wait happens OUTSIDE it — holding the
//     serving lock across an fsync would serialize every writer behind
//     every flush and forfeit group commit entirely.
func (ing *Ingester) commit(w http.ResponseWriter, metricOp, op, name, src string, next gks.Searcher, start time.Time) {
	var lsn uint64
	switch {
	case ing.wal != nil:
		wop := wal.OpUpsert
		if op == "delete" {
			wop = wal.OpDelete
		}
		var err error
		if lsn, err = ing.wal.Enqueue(wop, name, src); err != nil {
			ing.rl.mu.Unlock()
			ing.observe(metricOp, false, start)
			gen := ing.rl.h.Generation()
			if ing.logger != nil {
				ing.logger.Printf("ingest %s %q: wal append failed, still serving generation %d: %v", op, name, gen, err)
			}
			serverError(w, fmt.Errorf("wal append failed, still serving generation %d: %w", gen, err))
			return
		}
	case ing.persist != nil:
		if err := ing.persist(next); err != nil {
			ing.rl.mu.Unlock()
			ing.observe(metricOp, false, start)
			gen := ing.rl.h.Generation()
			if ing.logger != nil {
				ing.logger.Printf("ingest %s %q: persist failed, still serving generation %d: %v", op, name, gen, err)
			}
			serverError(w, fmt.Errorf("persist failed, still serving generation %d: %w", gen, err))
			return
		}
	}
	gen, dropped := ing.rl.h.SwapDoc(next, name)
	st := next.Stats()
	ing.reg.SetDocs(st.Documents)
	ing.reg.SetSnapshotGeneration(gen)
	if ss, ok := next.(*gks.ShardedSystem); ok {
		ing.reg.SetShardCount(ss.NumShards())
	}
	ing.rl.mu.Unlock()

	if ing.wal != nil {
		if err := ing.wal.WaitDurable(lsn); err != nil {
			// The mutation is applied and serving but its record never hit
			// disk — a crash now would lose it. Refuse the ack so the client
			// retries; the log is wedged, so the operator will hear about it.
			ing.observe(metricOp, false, start)
			if ing.logger != nil {
				ing.logger.Printf("ingest %s %q: wal fsync failed, lsn %d applied but not durable: %v", op, name, lsn, err)
			}
			serverError(w, fmt.Errorf("wal fsync failed: mutation applied but not durable: %w", err))
			return
		}
		if ing.onDurable != nil {
			ing.onDurable()
		}
	}
	ing.observe(metricOp, true, start)
	if ing.logger != nil {
		ing.logger.Printf("ingest %s %q: generation %d now serving %d document(s), %d cached answer(s) dropped", op, name, gen, st.Documents, dropped)
	}
	resp := map[string]any{
		"op":         op,
		"name":       name,
		"generation": gen,
		"documents":  st.Documents,
		"persisted":  ing.wal != nil || ing.persist != nil,
	}
	if ing.wal != nil {
		resp["lsn"] = lsn
	}
	writeJSON(w, resp)
}

func (ing *Ingester) observe(op string, ok bool, start time.Time) {
	ing.reg.ObserveIngest(op, ok, time.Since(start))
}
