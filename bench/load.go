package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// Operation kinds, for samples.
const (
	opSearch = iota
	opInsights
	opMutation
	opKinds
)

// tally is what one connection observed: latencies of the operations that
// succeeded, by kind, in milliseconds, and the counts that feed error_rate.
type tally struct {
	lat       [opKinds][]float64
	attempted int
	failed    int
	bodyBytes int64 // /search response bodies
	firstErr  string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

func (t *tally) merge(o *tally) {
	for k := range t.lat {
		t.lat[k] = append(t.lat[k], o.lat[k]...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.bodyBytes += o.bodyBytes
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// conn is one closed-loop caller: it sends its next request only when the
// previous answer has arrived and been checked.
type conn struct {
	base string
	http *http.Client
	buf  bytes.Buffer
	// afterBody, when set, runs once the last body byte of each response
	// has been read: the traced run ends its client.request span there,
	// before the answer is decoded and checked.
	afterBody func()
}

func newConn(base string) *conn {
	// One keep-alive connection per caller; a caller is sequential, so the
	// transport never opens a second.
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *conn) close() { c.http.CloseIdleConnections() }

// do sends one request and returns the status, the body (valid until the
// next call) and the time from send to last body byte.
func (c *conn) do(method, path string, body string) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if c.afterBody != nil {
		c.afterBody()
	}
	return resp.StatusCode, c.buf.Bytes(), d, err
}

type searchBody struct {
	Total   int `json:"total"`
	Results []struct {
		ID   string  `json:"id"`
		Rank float64 `json:"rank"`
	} `json:"results"`
}

type insightsBody struct {
	Insights []struct {
		Value  string  `json:"value"`
		Weight float64 `json:"weight"`
		Count  int     `json:"count"`
	} `json:"insights"`
}

// search sends one /search and checks the answer.
func (c *conn) search(r *request, t *tally) {
	t.attempted++
	status, body, d, err := c.do(http.MethodGet, r.searchURL, "")
	if err != nil || status != http.StatusOK {
		t.fail("search %q: status %d err %v", r.query, status, err)
		return
	}
	var sb searchBody
	if err := json.Unmarshal(body, &sb); err != nil {
		t.fail("search %q: %v", r.query, err)
		return
	}
	got := answer{total: sb.Total}
	for _, res := range sb.Results {
		got.ids = append(got.ids, res.ID)
		got.ranks = append(got.ranks, res.Rank)
	}
	if !got.equal(r.want) {
		t.fail("search %q s=%d: got total %d ids %v, want total %d ids %v", r.query, r.s, got.total, got.ids, r.want.total, r.want.ids)
		return
	}
	t.bodyBytes += int64(len(body))
	t.lat[opSearch] = append(t.lat[opSearch], ms(d))
}

func (c *conn) insights(r *request, t *tally) {
	t.attempted++
	status, body, d, err := c.do(http.MethodGet, r.insightsURL, "")
	if err != nil || status != http.StatusOK {
		t.fail("insights %q: status %d err %v", r.query, status, err)
		return
	}
	var ib insightsBody
	if err := json.Unmarshal(body, &ib); err != nil {
		t.fail("insights %q: %v", r.query, err)
		return
	}
	got := make([]insightAnswer, len(ib.Insights))
	for i, in := range ib.Insights {
		got[i] = insightAnswer{in.Value, in.Count, in.Weight}
	}
	if !insightsEqual(got, r.wantDI) {
		t.fail("insights %q s=%d: got %v, want %v", r.query, r.s, got, r.wantDI)
		return
	}
	t.lat[opInsights] = append(t.lat[opInsights], ms(d))
}

// stream is one reader connection's request sequence, a function of the
// run seed and the connection's number only.
type stream struct {
	wl   *workload
	reqs []request
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newStream(wl *workload, reqs []request, seed int64, client int) *stream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	return &stream{wl: wl, reqs: reqs, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(reqs)-1))}
}

// next sends the stream's next request on c.
func (s *stream) next(c *conn, t *tally) {
	idx, insights := s.wl.pick(s.rng, s.zipf, len(s.reqs))
	if insights {
		c.insights(&s.reqs[idx], t)
	} else {
		c.search(&s.reqs[idx], t)
	}
}

// writeRate is the writer's schedule, in mutations per second: about half
// of what gksd acknowledges beside one reader on this box, so that the
// writer keeps to it when the box runs slow and every run of the workload
// holds the same number of mutations, checkpoints and repacks.
const writeRate = 25

// writer is the ingest connection: it adds, replaces and deletes documents
// on a fixed schedule and remembers what the server acknowledged.
type writer struct {
	seed    int64
	rng     *rand.Rand
	next    int           // number of the next new document
	live    []int         // acknowledged live documents
	version map[int]int   // document -> acknowledged version (live or last before delete)
	deleted map[int]bool  // acknowledged deletes
	bytes   map[int]int64 // XML bytes of each live document
	sent    int64         // XML bytes sent in acknowledged upserts
	maxLate time.Duration // the furthest a mutation was sent behind its schedule
}

func newWriter(seed int64) *writer {
	return &writer{
		seed: seed, rng: rand.New(rand.NewSource(seed*1_000_003 + 999)),
		version: map[int]int{}, deleted: map[int]bool{}, bytes: map[int]int64{},
	}
}

// step performs the mutation that was due at due: 70% add, 20% replace,
// 10% delete; with no document of its own live yet, it adds. The writer is
// an open loop, so the latency it records runs from due, not from the send:
// a stall that delays later mutations counts against each of them.
func (w *writer) step(c *conn, t *tally, due time.Time) {
	p := w.rng.Float64()
	if len(w.live) == 0 {
		p = 0
	}
	t.attempted++
	late := time.Since(due)
	w.maxLate = max(w.maxLate, late)
	switch {
	case p < 0.7:
		w.upsert(c, t, w.next, 1, "add", late)
	case p < 0.9:
		n := w.live[w.rng.Intn(len(w.live))]
		w.upsert(c, t, n, w.version[n]+1, "replace", late)
	default:
		i := w.rng.Intn(len(w.live))
		n := w.live[i]
		name := ingestName(n)
		status, body, d, err := c.do(http.MethodDelete, "/admin/docs/"+url.PathEscape(name), "")
		if err != nil || status != http.StatusOK {
			t.fail("delete %s: status %d err %v body %s", name, status, err, body)
			return
		}
		w.live[i] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
		w.deleted[n] = true
		delete(w.bytes, n)
		t.lat[opMutation] = append(t.lat[opMutation], ms(late+d))
	}
}

func (w *writer) upsert(c *conn, t *tally, n, v int, wantOp string, late time.Duration) {
	name, _, xml := ingestDoc(w.seed, n, v)
	payload, _ := json.Marshal(map[string]string{"name": name, "xml": xml})
	status, body, d, err := c.do(http.MethodPost, "/admin/docs", string(payload))
	var ack struct {
		Op        string `json:"op"`
		Persisted bool   `json:"persisted"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &ack)
	}
	if err != nil || status != http.StatusOK || ack.Op != wantOp || !ack.Persisted {
		t.fail("%s %s: status %d err %v body %s", wantOp, name, status, err, body)
		return
	}
	if v == 1 {
		w.next++
		w.live = append(w.live, n)
	}
	w.version[n] = v
	w.bytes[n] = int64(len(xml))
	w.sent += int64(len(xml))
	t.lat[opMutation] = append(t.lat[opMutation], ms(late+d))
}

func (w *writer) liveBytes() int64 {
	var n int64
	for _, b := range w.bytes {
		n += b
	}
	return n
}

// verify checks, against a restarted server, that every acknowledged
// mutation is visible: a live document answers to the token of its
// acknowledged version and not to the version before; a deleted document
// answers to none. Each document is one attempted operation.
func (w *writer) verify(c *conn, t *tally) {
	total := func(token string) (int, error) {
		status, body, _, err := c.do(http.MethodGet, "/search?q="+token+"&s=1&top=1", "")
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("status %d err %v", status, err)
		}
		var sb searchBody
		err = json.Unmarshal(body, &sb)
		return sb.Total, err
	}
	for n, v := range w.version {
		t.attempted++
		token := ingestToken(n, v)
		got, err := total(token)
		switch {
		case err != nil:
			t.fail("durability check %s: %v", token, err)
		case w.deleted[n] && got != 0:
			t.fail("deleted document %d is back after the crash (%s has %d results)", n, token, got)
		case !w.deleted[n] && got == 0:
			t.fail("acknowledged version %s lost after the crash", token)
		case !w.deleted[n] && v > 1:
			prev := ingestToken(n, v-1)
			if got, err := total(prev); err != nil || got != 0 {
				t.fail("replaced version %s visible after the crash (%d results, err %v)", prev, got, err)
			}
		}
	}
}

// runLoad drives every connection of the workload: the readers send
// requests each (requests > 0) or run until the deadline; the writer, when
// the workload has one, sends writeRate mutations per second beside them
// until the deadline.
func runLoad(streams []*stream, conns []*conn, w *writer, wconn *conn, requests int, deadline time.Time) *tally {
	var wg sync.WaitGroup
	tallies := make([]tally, len(streams)+1)
	more := func(sent int) bool {
		if requests > 0 {
			return sent < requests
		}
		return time.Now().Before(deadline)
	}
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for sent := 0; more(sent); sent++ {
				streams[i].next(conns[i], &tallies[i])
			}
		}(i)
	}
	if w != nil && requests == 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k) * time.Second / writeRate)
				if !due.Before(deadline) {
					return
				}
				time.Sleep(time.Until(due))
				w.step(wconn, &tallies[len(streams)], due)
			}
		}()
	}
	wg.Wait()
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total
}
