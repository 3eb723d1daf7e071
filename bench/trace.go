package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"time"

	gks "repro"
)

// Span names. Every span of one request shares its Req; Parent is the ID
// of the span that caused it (0 for the root, client.request).
const (
	spanClient  = "client.request"
	spanHandler = "server.handler"
	spanSearch  = "gks.search"
	spanMerge   = "core.merge"
	spanWindows = "core.windows"
	spanLift    = "core.lift"
	spanFilter  = "core.filter"
	spanRank    = "rank.score"
	spanFetch   = "segment.block_fetch"
	spanDI      = "di.insights"
)

// spanLayer maps a span to the layer (repo module) its self time is
// charged to. client.request's self time is what is left of a request
// once the handler is subtracted: the HTTP client, loopback, and
// net/http's connection handling, parsing and response write.
var spanLayer = map[string]string{
	spanClient:  "http",
	spanHandler: "server",
	spanSearch:  "core",
	spanMerge:   "merge",
	spanWindows: "core",
	spanLift:    "core",
	spanFilter:  "core",
	spanRank:    "rank",
	spanFetch:   "segment",
	spanDI:      "di",
}

// stageSpans lists the engine's stages in the order it runs them, matching
// the fields of core.StageTimings.
var stageSpans = [...]string{spanMerge, spanWindows, spanLift, spanFilter, spanRank}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	// SL and Results are the counts taken at the gks.search boundary.
	SL      int `json:"sl,omitempty"`
	Results int `json:"results,omitempty"`
}

// tracer keeps spans in memory until the run ends. The traced run has one
// client and so one request in flight: the open client, handler and search
// spans of that request are the parents of whatever starts next.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	req     int
	client  int // open span IDs of the request in flight; 0 when none
	handler int
	search  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reset drops what has been recorded so far (the warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.req, t.client, t.handler, t.search = nil, 0, 0, 0, 0
	t.t0 = time.Now()
	t.mu.Unlock()
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add appends a span and returns its ID. Callers hold t.mu.
func (t *tracer) add(name string, parent int, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: start, End: end})
	return id
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id-1].End = t.now()
	t.mu.Unlock()
}

func (t *tracer) beginRequest() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req++
	t.client = t.add(spanClient, 0, t.now(), 0)
	t.handler, t.search = 0, 0
	return t.client
}

// middleware records server.handler around the whole chain gksd installs.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.mu.Lock()
		id := t.add(spanHandler, t.client, t.now(), 0)
		t.handler = id
		t.mu.Unlock()
		next.ServeHTTP(w, r)
		t.end(id)
	})
}

// ObserveBlockFetch and its four siblings implement segment.Metrics: a
// fetch is reported when it ends, with its duration.
func (t *tracer) ObserveBlockFetch(d time.Duration) {
	t.mu.Lock()
	end := t.now()
	t.add(spanFetch, t.search, end-int64(d), end)
	t.mu.Unlock()
}
func (t *tracer) BlockCacheHit()           {}
func (t *tracer) BlockCacheMiss()          {}
func (t *tracer) BlockCacheEvict()         {}
func (t *tracer) SetBlockCacheBytes(int64) {}

// tracedSystem times the two calls the server makes into the engine. The
// stage spans come from Response.Stages, laid end to end from the start of
// the search (the engine runs them in that order); block fetches recorded
// during the search are re-parented under core.merge, the stage that
// resolves posting lists.
type tracedSystem struct {
	*gks.System
	t *tracer
}

func (s tracedSystem) SearchContext(ctx context.Context, query string, threshold int) (*gks.Response, error) {
	t := s.t
	t.mu.Lock()
	start := t.now()
	id := t.add(spanSearch, t.handler, start, 0)
	t.search = id
	firstChild := len(t.spans)
	t.mu.Unlock()

	resp, err := s.System.SearchContext(ctx, query, threshold)

	t.mu.Lock()
	defer t.mu.Unlock()
	t.search = 0
	t.spans[id-1].End = t.now()
	if err != nil || resp == nil {
		return resp, err
	}
	t.spans[id-1].SL, t.spans[id-1].Results = resp.SLSize, len(resp.Results)
	lastChild := len(t.spans)
	at := start
	merge := 0
	for i, d := range []time.Duration{resp.Stages.Merge, resp.Stages.Windows, resp.Stages.Lift, resp.Stages.Filter, resp.Stages.Rank} {
		sid := t.add(stageSpans[i], id, at, at+int64(d))
		if i == 0 {
			merge = sid
		}
		at += int64(d)
	}
	for i := firstChild; i < lastChild; i++ {
		if t.spans[i].Name == spanFetch {
			t.spans[i].Parent = merge
		}
	}
	return resp, err
}

func (s tracedSystem) Insights(resp *gks.Response, m int) []gks.Insight {
	t := s.t
	t.mu.Lock()
	id := t.add(spanDI, t.handler, t.now(), 0)
	t.mu.Unlock()
	out := s.System.Insights(resp, m)
	t.end(id)
	return out
}

// selfTimes returns each span's self time: its duration minus the time its
// children cover, never below zero. Children of one span here never
// overlap each other (stages are sequential, fetches are sequential inside
// merge), so the covered time is the sum of the children's durations
// clipped to the parent's.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p := spans[s.Parent-1]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			self[s.Parent-1] -= hi - lo
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
