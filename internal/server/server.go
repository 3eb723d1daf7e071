// Package server exposes a GKS system over HTTP with a small JSON API —
// the deployment surface a production XML search service needs. All
// endpoints are read-only GETs against an immutable index, so the handler
// is safe for concurrent use.
//
//	GET /search?q=<query>&s=<threshold>&top=<k>     ranked GKS response
//	GET /insights?q=<query>&s=<threshold>&m=<m>     deeper analytical insights
//	GET /refine?q=<query>&s=<threshold>&top=<k>     query refinement suggestions
//	GET /explain?q=<query>&s=<threshold>            pipeline diagnostics
//	GET /baselines?q=<query>                        SLCA / ELCA answers
//	GET /types?q=<query>&top=<k>                    inferred result types
//	GET /suggest?kw=<keyword>&dist=<d>&top=<k>      did-you-mean candidates
//	GET /schema                                     inferred schema edges
//	GET /stats                                      index statistics
//
// q supports double-quoted phrases; s=0 requests best-effort thresholding.
// /search asks the engine for the top results it sends, not the whole
// ranked response; its "total" is Response.Total, |R_Q(s)|. /insights and
// /refine read every result, so they ask for all of them.
//
// Parameter validation is strict: malformed or negative integer parameters
// are rejected with 400 (never silently defaulted), and top, m, dist, and s
// are clamped to sane upper bounds so no request can demand an unbounded
// response. Unknown paths get a JSON 404 listing the known endpoints;
// non-GET methods get 405. Client mistakes answer 400, internal failures
// 500, and an exceeded request deadline 504.
//
// /search, /insights and /refine answers are memoized in an LRU
// (NewWithCache) under one invariant: every resident entry is the answer of
// the system being served. An entry belongs to one query (q, s): its
// normalized tokens plus the encoded body of each view asked of it (an
// endpoint and its top or m), so a hit on any of the three is one Write of
// stored bytes. A one-document mutation (SwapDoc: /admin/docs, replica
// apply) drops only the entries with a token the document held or holds —
// no other answer can have changed — while a wholesale replacement (Swap:
// reload, snapshot install, repack) purges everything. /explain is never
// cached: its body carries the wall-clock stage timings of its own run.
//
// The handler is plain business logic; production concerns (panic recovery,
// request timeouts, load shedding, metrics, access logs) are layered on via
// the Middleware stack in middleware.go, and lifecycle.go configures the
// http.Server and graceful drain used by cmd/gksd. A request runs on the
// goroutine net/http gave it, and every handler encodes its body before it
// writes: so the deadline is enforced in place, and a response is either
// complete or the 504 that replaces it.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"

	gks "repro"
	"repro/internal/cache"
)

// Upper bounds for integer query parameters. Values above these are clamped,
// keeping every response bounded regardless of what the client asks for.
const (
	maxTop  = 1000 // results / refinements / types returned
	maxS    = 64   // threshold; queries support at most 64 keywords
	maxM    = 1000 // insights returned
	maxDist = 8    // did-you-mean edit distance
)

// endpoints lists every route the handler serves, sorted; it is returned in
// 404 bodies and used by the metrics middleware to label known paths.
var endpoints = []string{
	"/baselines", "/explain", "/insights", "/refine",
	"/schema", "/search", "/stats", "/suggest", "/types",
}

// searcherBox pairs the served Searcher with its snapshot generation (1 for
// the boot system, +1 per swap) in a concrete type that can live behind an
// atomic.Pointer — the interface itself cannot (atomic.Value would
// additionally panic when a reload swaps between concrete types, e.g. a
// single-index System replaced by a ShardedSystem). One load yields a
// consistent pair.
type searcherBox struct {
	s   gks.Searcher
	gen int64
}

// maxViews bounds the bodies one cached query keeps; the oldest goes first.
const maxViews = 4

// viewKey names one view of a query: the endpoint and its top or m.
type viewKey struct {
	endpoint string
	n        int
}

// cachedView is the exact bytes writeJSON would send for one view.
type cachedView struct {
	key  viewKey
	body []byte
}

// cachedAnswer is one response-cache entry, everything kept of one query
// (q, s): its normalized tokens — what a mutated document must hold for
// any of its answers to change — and the views asked of it so far. views
// is replaced, never written in place, so a reader may hold it unlocked.
type cachedAnswer struct {
	tokens []string
	views  []cachedView
}

func (a cachedAnswer) body(v viewKey) []byte {
	for _, cv := range a.views {
		if cv.key == v {
			return cv.body
		}
	}
	return nil
}

// Handler routes the JSON API for one system — a single-index System or a
// sharded set; anything satisfying gks.Searcher. The searcher lives behind
// an atomic pointer so a swap can replace the whole index with zero
// downtime: each request loads the pointer once and serves a consistent
// view, while in-flight requests on the previous system finish against the
// immutable index they started with.
type Handler struct {
	sys atomic.Pointer[searcherBox]
	mux *http.ServeMux
	// mu orders response-cache fills against swaps, which keeps every
	// resident entry the served system's answer: a swap stores the new
	// system and drops the entries it may have changed in one critical
	// section, and a fill is discarded unless the system it searched is
	// still the one served — so a search that outlives a swap cannot
	// cache a stale answer. Cache hits do not take it.
	mu        sync.Mutex
	respCache *cache.LRU[string, cachedAnswer]
	// flight is keyed by generation, cache key and view: a request that
	// starts after an acknowledged write never joins a search on the
	// system before it.
	flight    cache.Group[string, []byte]
	searchObs SearchObserver

	invalidated atomic.Int64 // entries dropped by SwapDoc's selective sweeps
	purges      atomic.Int64 // full purges
}

// SearchObserver receives per-search pipeline measurements from the search
// handlers: one stage observation per pipeline stage plus the merged-list
// size. obs.Registry satisfies it (gks_search_stage_seconds and
// gks_search_sl_entries).
type SearchObserver interface {
	ObserveSearchStage(stage string, seconds float64)
	ObserveSLSize(entries int)
}

// SetSearchObserver wires o into every handler that runs a search. Call it
// before the handler starts serving traffic; cached responses are not
// re-observed (no engine work happens on a cache hit).
func (h *Handler) SetSearchObserver(o SearchObserver) { h.searchObs = o }

// New builds the HTTP handler for sys.
func New(sys gks.Searcher) *Handler { return NewWithCache(sys, 0) }

// NewWithCache builds the handler with an LRU memoizing /search, /insights
// and /refine responses for up to capacity distinct queries (q, s), each
// with the last maxViews views asked of it. Search is deterministic over an
// immutable index, and insights and refinements are functions of the
// response and its result nodes' own subtrees, so a cached response stays
// right until a swap changes the documents it was computed from; Swap and
// SwapDoc drop what they may have changed. Responses flagged partial (a
// degraded scatter-gather) are never cached — they reflect a transient
// failure, not the query's answer. capacity <= 0 disables the cache.
// Concurrent identical cache misses are coalesced through a singleflight
// group so a popular query cannot stampede the engine.
func NewWithCache(sys gks.Searcher, capacity int) *Handler {
	h := &Handler{mux: http.NewServeMux()}
	h.sys.Store(&searcherBox{s: sys, gen: 1})
	if capacity > 0 {
		h.respCache = cache.New[string, cachedAnswer](capacity)
	}
	h.mux.HandleFunc("/search", h.handleSearch)
	h.mux.HandleFunc("/insights", h.handleInsights)
	h.mux.HandleFunc("/refine", h.handleRefine)
	h.mux.HandleFunc("/explain", h.handleExplain)
	h.mux.HandleFunc("/baselines", h.handleBaselines)
	h.mux.HandleFunc("/types", h.handleTypes)
	h.mux.HandleFunc("/suggest", h.handleSuggest)
	h.mux.HandleFunc("/schema", h.handleSchema)
	h.mux.HandleFunc("/stats", h.handleStats)
	h.mux.HandleFunc("/", h.handleNotFound)
	return h
}

// ServeHTTP implements http.Handler. Every endpoint is a read-only GET;
// other methods answer 405 with an Allow header.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeJSONStatus(w, http.StatusMethodNotAllowed, map[string]any{
			"error": fmt.Sprintf("method %s not allowed; all endpoints are read-only GETs", r.Method),
		})
		return
	}
	h.mux.ServeHTTP(w, r)
}

// CacheStats returns the cumulative response-cache hit/miss counters (zero
// when the cache is disabled) — the source for the obs cache gauges.
func (h *Handler) CacheStats() (hits, misses int64) {
	if h.respCache == nil {
		return 0, 0
	}
	return h.respCache.Stats()
}

// CacheEvictions returns how many cached answers SwapDoc's selective
// sweeps have dropped and how many full purges there have been — the
// source for gks_cache_invalidated_total and gks_cache_purges_total.
func (h *Handler) CacheEvictions() (invalidated, purges int64) {
	return h.invalidated.Load(), h.purges.Load()
}

// Searcher returns the currently served system.
func (h *Handler) Searcher() gks.Searcher { return h.sys.Load().s }

// Generation returns the snapshot generation being served (1 at boot,
// +1 per successful swap).
func (h *Handler) Generation() int64 { return h.sys.Load().gen }

// Swap atomically replaces the served system and purges the response
// cache, returning the new generation: the successor is not a
// one-document diff of the served system (a reload, a snapshot install, a
// repack), so no cached answer can be vouched for. Requests already past
// their pointer load finish on the old system (immutable, so always
// consistent); every subsequent request sees the new one. The caller is
// responsible for validating sys before swapping — Swap itself cannot
// fail, which is what gives the reload path its rollback-by-default
// semantics.
func (h *Handler) Swap(sys gks.Searcher) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	gen, _ := h.install(sys, nil)
	return gen
}

// SwapDoc is Swap for a successor that differs from the served system in
// the one document named name — added, replaced or deleted. An answer can
// change only if the document, before or after, holds one of the query's
// tokens (gks.Searcher.DocHolds), so SwapDoc drops exactly those entries
// and reports how many.
func (h *Handler) SwapDoc(next gks.Searcher, name string) (gen int64, dropped int) {
	cur := h.sys.Load()
	var stale func(string, cachedAnswer) bool
	if h.respCache != nil {
		before, after := cur.s.DocHolds(name), next.DocHolds(name)
		stale = func(_ string, a cachedAnswer) bool {
			for _, tok := range a.tokens {
				if before(tok) || after(tok) {
					return true
				}
			}
			return false
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sys.Load() != cur {
		// Swapped underneath us (callers serialize swaps, so a caller bug):
		// next is not a one-document diff of what is now served.
		stale = nil
	}
	return h.install(next, stale)
}

// install stores next as the served system and drops the cached answers
// stale selects, all of them when stale is nil. Callers hold h.mu.
func (h *Handler) install(next gks.Searcher, stale func(string, cachedAnswer) bool) (gen int64, dropped int) {
	gen = h.sys.Load().gen + 1
	h.sys.Store(&searcherBox{s: next, gen: gen})
	if h.respCache == nil {
		return gen, 0
	}
	if stale == nil {
		h.purges.Add(1)
		return gen, h.respCache.Purge()
	}
	dropped = h.respCache.DeleteFunc(stale)
	h.invalidated.Add(int64(dropped))
	return gen, dropped
}

// resultJSON is the wire form of one response node.
type resultJSON struct {
	ID       string   `json:"id"`
	Label    string   `json:"label"`
	Rank     float64  `json:"rank"`
	Keywords []string `json:"keywords"`
	Entity   bool     `json:"entity"`
}

// searchJSON is the wire form of a response. Partial is always emitted
// (no omitempty) so clients of a degrade-to-partial deployment can tell a
// complete answer from a degraded one without guessing at absent fields.
type searchJSON struct {
	Query   string       `json:"query"`
	S       int          `json:"s"`
	SLSize  int          `json:"slSize"`
	Total   int          `json:"total"`
	Partial bool         `json:"partial"`
	Results []resultJSON `json:"results"`
}

type insightJSON struct {
	Value  string   `json:"value"`
	Path   []string `json:"path"`
	Weight float64  `json:"weight"`
	Count  int      `json:"count"`
}

// cacheKey builds a collision-proof key for a query (q, s). The query is
// quoted so a "|" (or any other delimiter byte) inside q can never bleed
// into the numeric field, a view appended to it or a neighboring key.
func cacheKey(q string, s int) string {
	return strconv.Quote(q) + "|" + strconv.Itoa(s)
}

// queryTokens returns the normalized tokens of every keyword of q — the
// posting lists its answer is computed from.
func queryTokens(q string) []string {
	var toks []string
	for _, kw := range gks.ParseQuery(q).Keywords {
		toks = append(toks, kw.Tokens...)
	}
	return toks
}

// search runs one query against sys in one engine call, ctx-aware: the k
// best results (k <= 0: all of them), at threshold s or, for s <= 0, at the
// best-effort threshold. Engine errors (empty query, too many keywords) are
// client errors; context expiry passes through for the 504 path.
// Successful engine runs report their per-stage timings and |S_L| to the
// handler's SearchObserver (cache hits never reach here).
func (h *Handler) search(ctx context.Context, sys gks.Searcher, q string, s, k int) (*gks.Response, error) {
	resp, err := sys.Search(ctx, gks.SearchRequest{Query: gks.ParseQuery(q), S: s, TopK: k, BestEffort: s <= 0})
	if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		err = badRequest(err)
	}
	if err == nil && resp != nil && h.searchObs != nil {
		h.searchObs.ObserveSearchStage("merge", resp.Stages.Merge.Seconds())
		h.searchObs.ObserveSearchStage("windows", resp.Stages.Windows.Seconds())
		h.searchObs.ObserveSearchStage("lift", resp.Stages.Lift.Seconds())
		h.searchObs.ObserveSearchStage("filter", resp.Stages.Filter.Seconds())
		h.searchObs.ObserveSearchStage("rank", resp.Stages.Rank.Seconds())
		h.searchObs.ObserveSLSize(resp.SLSize)
	}
	return resp, err
}

// searchParams validates the common q/s pair shared by /search, /insights,
// /refine and /explain.
func searchParams(vals url.Values) (q string, s int, err error) {
	q = vals.Get("q")
	if q == "" {
		return "", 0, badRequest(errors.New("missing q parameter"))
	}
	s, err = intParam(vals, "s", 1, maxS)
	return q, s, err
}

// buildSearchJSON renders the top first results of resp; total is
// resp.Total, so resp may hold the whole response or only its head.
func buildSearchJSON(resp *gks.Response, top int) searchJSON {
	out := searchJSON{
		Query:   resp.Query.String(),
		S:       resp.S,
		SLSize:  resp.SLSize,
		Total:   resp.Total,
		Partial: resp.Partial,
	}
	for i, res := range resp.Results {
		if i >= top {
			break
		}
		out.Results = append(out.Results, resultJSON{
			ID:       res.ID.String(),
			Label:    res.Label,
			Rank:     res.Rank,
			Keywords: resp.KeywordsOf(res),
			Entity:   res.IsEntity,
		})
	}
	return out
}

// handleSearch asks the engine for the top results it sends.
func (h *Handler) handleSearch(w http.ResponseWriter, r *http.Request) {
	h.serveCached(w, r, "top", 10, maxTop, true, func(_ gks.Searcher, resp *gks.Response, top int) any {
		return buildSearchJSON(resp, top)
	})
}

// handleInsights flags insights over a partial response — they cover only
// the shards that answered — so clients can tell.
func (h *Handler) handleInsights(w http.ResponseWriter, r *http.Request) {
	h.serveCached(w, r, "m", 5, maxM, false, func(sys gks.Searcher, resp *gks.Response, m int) any {
		var out []insightJSON
		for _, in := range sys.Insights(resp, m) {
			out = append(out, insightJSON{
				Value: in.Value, Path: in.Path, Weight: in.Weight, Count: in.Count,
			})
		}
		return map[string]interface{}{
			"query":    resp.Query.String(),
			"partial":  resp.Partial,
			"insights": out,
		}
	})
}

// handleRefine keeps the partial-visibility contract of /insights.
func (h *Handler) handleRefine(w http.ResponseWriter, r *http.Request) {
	h.serveCached(w, r, "top", 5, maxTop, false, func(_ gks.Searcher, resp *gks.Response, top int) any {
		var out []string
		for _, rq := range gks.Refinements(resp, top) {
			out = append(out, rq.String())
		}
		return map[string]interface{}{
			"query":       resp.Query.String(),
			"partial":     resp.Partial,
			"refinements": out,
		}
	})
}

// serveCached answers one view of a query — the endpoint r names, with its
// integer parameter param — from the query's cache entry, and otherwise
// searches once, encodes what build makes of the response, and stores the
// body in that entry. It is the one place that owns the lookup, the
// coalescing of identical concurrent misses (one engine search serves them
// all, and exactly one goroutine populates the cache), the partial rule and
// the fill. topK says build reads only the n first results, so the engine
// is asked for n; otherwise it returns every result.
func (h *Handler) serveCached(w http.ResponseWriter, r *http.Request, param string, def, max int, topK bool,
	build func(sys gks.Searcher, resp *gks.Response, n int) any) {
	vals := r.URL.Query()
	q, s, err := searchParams(vals)
	if err != nil {
		writeError(w, err)
		return
	}
	n, err := intParam(vals, param, def, max)
	if err != nil {
		writeError(w, err)
		return
	}
	box := h.sys.Load()
	key, view := cacheKey(q, s), viewKey{r.URL.Path, n}
	if h.respCache != nil {
		if a, ok := h.respCache.GetIf(key, func(a cachedAnswer) bool { return a.body(view) != nil }); ok {
			writeBody(w, http.StatusOK, a.body(view))
			return
		}
	}
	flightKey := strconv.FormatInt(box.gen, 10) + "|" + key + "|" + view.endpoint + "|" + strconv.Itoa(n)
	k := 0
	if topK {
		k = n
	}
	body, _, err := h.flight.Do(r.Context(), flightKey, func() ([]byte, error) {
		resp, err := h.search(r.Context(), box.s, q, s, k)
		if err != nil {
			return nil, err
		}
		body, err := encodeJSON(build(box.s, resp, n))
		if err != nil {
			return nil, err
		}
		// A partial response reflects a transient shard failure, not the
		// query's answer: caching it would keep serving degraded results
		// long after the shard recovers. (The singleflight group only
		// coalesces concurrent callers, so it never outlives the degraded
		// search itself.)
		if h.respCache != nil && !resp.Partial {
			h.fill(box, q, key, cachedView{view, body})
		}
		return body, nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// fill adds v to the cache entry of the query (q, s) behind key, making the
// entry if there is none and dropping its oldest view beyond maxViews,
// unless a swap has replaced the system v was computed on (see Handler.mu).
func (h *Handler) fill(searched *searcherBox, q, key string, v cachedView) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sys.Load() != searched {
		return
	}
	a, ok := h.respCache.Peek(key)
	if !ok {
		a.tokens = queryTokens(q)
	}
	views := make([]cachedView, 0, maxViews)
	for _, old := range a.views {
		if old.key != v.key {
			views = append(views, old)
		}
	}
	if len(views) == maxViews {
		views = views[1:]
	}
	a.views = append(views, v)
	h.respCache.Put(key, a)
}

// handleExplain always runs the engine: the body carries the wall-clock
// stage timings of the run, and a stored one would describe a search that
// did not happen.
func (h *Handler) handleExplain(w http.ResponseWriter, r *http.Request) {
	q, s, err := searchParams(r.URL.Query())
	if err != nil {
		writeError(w, err)
		return
	}
	if s <= 0 {
		s = 1
	}
	ex, err := h.Searcher().Explain(r.Context(), gks.ParseQuery(q), s)
	if err != nil {
		if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			err = badRequest(err)
		}
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]interface{}{
		"query":            ex.Query.String(),
		"s":                ex.S,
		"postingSizes":     ex.PostingSizes,
		"slSize":           ex.SLSize,
		"recordsTouched":   ex.RecordsTouched,
		"recordsQualified": ex.RecordsQualified,
		"blocks":           ex.Blocks,
		"prunedBlocks":     ex.PrunedBlocks,
		"lcpNodes":         ex.LCPNodes,
		"candidates":       ex.Candidates,
		"entityCandidates": ex.EntityCandidates,
		"survivors":        ex.Survivors,
		"mergeMicros":      ex.MergeTime.Microseconds(),
		"scanMicros":       ex.ScanTime.Microseconds(),
		"rankMicros":       ex.RankTime.Microseconds(),
		"stages": map[string]interface{}{
			"mergeMicros":   ex.Stages.Merge.Microseconds(),
			"windowsMicros": ex.Stages.Windows.Microseconds(),
			"liftMicros":    ex.Stages.Lift.Microseconds(),
			"filterMicros":  ex.Stages.Filter.Microseconds(),
			"rankMicros":    ex.Stages.Rank.Microseconds(),
		},
	})
}

func (h *Handler) handleBaselines(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("q")
	if raw == "" {
		clientError(w, errors.New("missing q parameter"))
		return
	}
	q := gks.ParseQuery(raw)
	sys := h.Searcher()
	writeJSON(w, map[string]interface{}{
		"query": q.String(),
		"slca":  orEmpty(sys.SLCA(q)),
		"elca":  orEmpty(sys.ELCA(q)),
	})
}

func (h *Handler) handleTypes(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	q := vals.Get("q")
	if q == "" {
		clientError(w, errors.New("missing q parameter"))
		return
	}
	top, err := intParam(vals, "top", 3, maxTop)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]interface{}{
		"query": q,
		"types": h.Searcher().InferResultTypes(q, top),
	})
}

func (h *Handler) handleSuggest(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	kw := vals.Get("kw")
	if kw == "" {
		clientError(w, errors.New("missing kw parameter"))
		return
	}
	dist, err := intParam(vals, "dist", 2, maxDist)
	if err != nil {
		writeError(w, err)
		return
	}
	top, err := intParam(vals, "top", 5, maxTop)
	if err != nil {
		writeError(w, err)
		return
	}
	sys := h.Searcher()
	writeJSON(w, map[string]interface{}{
		"keyword":     kw,
		"hasMatches":  sys.HasMatches(kw),
		"suggestions": sys.Suggest(kw, dist, top),
	})
}

func (h *Handler) handleSchema(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, h.Searcher().Schema())
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, h.Searcher().Stats())
}

func (h *Handler) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeJSONStatus(w, http.StatusNotFound, map[string]any{
		"error":     fmt.Sprintf("unknown endpoint %q", r.URL.Path),
		"endpoints": endpoints,
	})
}

func orEmpty(v []string) []string {
	if v == nil {
		return []string{}
	}
	return v
}

// intParam parses an integer query parameter strictly: absent returns def;
// malformed or negative values are a 400-class error; values above max are
// clamped. Rejecting negatives closes the top=-1 hole that used to disable
// result truncation entirely.
func intParam(vals url.Values, name string, def, max int) (int, error) {
	if !vals.Has(name) {
		return def, nil
	}
	v := vals.Get(name)
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, badRequest(fmt.Errorf("invalid %s parameter %q: not an integer", name, v))
	}
	if n < 0 {
		return 0, badRequest(fmt.Errorf("invalid %s parameter %d: must be non-negative", name, n))
	}
	if n > max {
		n = max
	}
	return n, nil
}

// statusError carries an HTTP status with an underlying error so handlers
// can classify failures once and writeError can render them uniformly.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// badRequest marks err as the client's fault (HTTP 400).
func badRequest(err error) error { return &statusError{http.StatusBadRequest, err} }

// writeError renders err with the right status class: explicit statusError
// codes win; context expiry maps to 504; everything else is an internal 500.
// Client mistakes must never surface as 500s, and internal failures must
// never masquerade as 400s.
func writeError(w http.ResponseWriter, err error) {
	var se *statusError
	switch {
	case errors.As(err, &se):
		writeJSONStatus(w, se.code, map[string]string{"error": err.Error()})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeJSONStatus(w, http.StatusGatewayTimeout, map[string]string{"error": "request timed out"})
	default:
		serverError(w, err)
	}
}

// clientError answers 400 for malformed requests (missing/invalid params,
// query parse failures).
func clientError(w http.ResponseWriter, err error) {
	writeJSONStatus(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
}

// serverError answers 500 for internal failures.
func serverError(w http.ResponseWriter, err error) {
	writeJSONStatus(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
}

// encodeJSON renders v as every endpoint sends it: two-space indentation
// and a trailing newline.
func encodeJSON(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeBody sends an encoded JSON body with its length in one Write.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, v interface{}) { writeJSONStatus(w, http.StatusOK, v) }

// writeJSONStatus encodes v before it writes anything, so a value that
// fails to encode answers a clean 500 instead of a torn 200.
func writeJSONStatus(w http.ResponseWriter, code int, v interface{}) {
	body, err := encodeJSON(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = encodeJSON(map[string]string{"error": err.Error()}) // a string map always encodes
	}
	writeBody(w, code, body)
}
