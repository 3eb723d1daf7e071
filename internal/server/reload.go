package server

import (
	"fmt"
	"log"
	"net/http"
	"sync"

	gks "repro"
	"repro/internal/obs"
)

// Reloader owns zero-downtime snapshot replacement: the transition from
// one index generation to the next. It loads and validates a fresh system
// completely off the request path, then swaps it behind the Handler's
// atomic pointer. Because the swap is the final, infallible step, any
// failure — unreadable file, ErrCorrupt checksum mismatch, structural
// validation — simply leaves the previous system serving: rollback is the
// default, not a recovery action.
//
// Two triggers share one Reloader (serialized by its mutex): the
// POST /admin/reload endpoint and SIGHUP in cmd/gksd.
type Reloader struct {
	mu     sync.Mutex
	h      *Handler
	load   func() (gks.Searcher, error)
	reg    *obs.Registry // optional; reload counters and generation gauge
	logger *log.Logger   // optional
}

// NewReloader builds a Reloader for h. load produces the candidate system —
// typically gks.LoadIndexFile (or gks.LoadShardSet for a sharded daemon)
// on the same path the daemon booted from, so an operator can drop a new
// snapshot in place and reload. A shard-set load is all-or-nothing, so a
// reload can never swap in a mix of old and new shards. reg and logger
// may be nil.
func NewReloader(h *Handler, load func() (gks.Searcher, error), reg *obs.Registry, logger *log.Logger) *Reloader {
	return &Reloader{h: h, load: load, reg: reg, logger: logger}
}

// Reload loads, validates and swaps in a new system, returning the
// generation now serving. On failure the previous system keeps serving
// untouched and the error describes why the candidate was rejected.
// Concurrent reloads are serialized; searches are never blocked.
func (rl *Reloader) Reload() (int64, error) {
	rl.mu.Lock()
	defer rl.mu.Unlock()

	sys, err := rl.load()
	if err == nil {
		err = sys.ValidateIndex()
	}
	if err != nil {
		gen := rl.h.Generation()
		rl.reg.ObserveReload(false, gen)
		if rl.logger != nil {
			rl.logger.Printf("reload failed, still serving generation %d: %v", gen, err)
		}
		return gen, fmt.Errorf("reload: %w", err)
	}

	gen := rl.h.Swap(sys)
	rl.reg.ObserveReload(true, gen)
	if rl.logger != nil {
		st := sys.Stats()
		rl.logger.Printf("reloaded snapshot: generation %d now serving %d document(s), %d elements",
			gen, st.Documents, st.ElementNodes)
	}
	return gen, nil
}

// AdminHandler serves POST /admin/reload. A successful reload answers 200
// with the new generation and basic index stats; a rejected candidate
// answers 500 with the error and the generation still serving. Non-POST
// methods answer 405 — reloads mutate serving state and must never be
// triggerable by a stray GET.
func (rl *Reloader) AdminHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", "POST")
			writeJSONStatus(w, http.StatusMethodNotAllowed, map[string]any{
				"error": "reload requires POST",
			})
			return
		}
		gen, err := rl.Reload()
		if err != nil {
			writeJSONStatus(w, http.StatusInternalServerError, map[string]any{
				"error":      err.Error(),
				"generation": gen,
				"rolledBack": true,
			})
			return
		}
		st := rl.h.Searcher().Stats()
		writeJSON(w, map[string]any{
			"generation": gen,
			"documents":  st.Documents,
			"elements":   st.ElementNodes,
		})
	})
}
