// Cluster property tests: a leader ingesting live mutations, followers
// tailing its WAL through scripted network faults, and the router
// fronting them — proven against byte-identity and cold-rebuild
// oracles. Run under -race by `make check`.
package replica_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	gks "repro"
	"repro/internal/replica"
	"repro/internal/replica/faultnet"
	"repro/internal/server"
	"repro/internal/wal"
)

// Compile-time checks that the server glue satisfies the replication
// interfaces (they are satisfied structurally; neither package imports
// the other).
var (
	_ replica.Applier        = (*server.ReplicaApplier)(nil)
	_ replica.SnapshotSource = (*server.SnapshotSource)(nil)
)

var vocab = []string{
	"apple", "pear", "plum", "cherry", "quince",
	"mango", "grape", "fig", "date", "olive",
}

// docXML builds a small paper-shaped document from vocabulary words.
func docXML(rng *rand.Rand, rev int) string {
	pick := func() string { return vocab[rng.Intn(len(vocab))] }
	return fmt.Sprintf("<paper rev=\"%d\"><title>%s %s</title><author>%s</author><topic>%s</topic></paper>",
		rev, pick(), pick(), pick(), pick())
}

var oracleQueries = []string{
	"apple pear", "cherry", "mango grape", "fig olive", "plum quince", "date",
}

// node is one in-process gksd-shaped replica: snapshot + WAL + the real
// server commit path, HTTP-served.
type node struct {
	t         *testing.T
	indexPath string
	walDir    string
	wal       *wal.Log
	api       *server.Handler
	rl        *server.Reloader
	applier   *server.ReplicaApplier
	fl        *replica.Follower
	srv       *httptest.Server
	ln        net.Listener
	stop      context.CancelFunc
	runDone   chan struct{}
}

func (n *node) loadSys() (gks.Searcher, error) {
	sys, err := gks.LoadIndexFile(n.indexPath)
	if err != nil {
		return nil, err
	}
	recovered, _, err := gks.ReplayWAL(sys, n.wal)
	return recovered, err
}

// startLeader boots a leader over an initial corpus and serves the full
// surface: search API, live ingestion, health, replication endpoints.
func startLeader(t *testing.T, rng *rand.Rand, finals map[string]string, initialDocs int) *node {
	t.Helper()
	dir := t.TempDir()
	n := &node{t: t, indexPath: dir + "/repo.gksidx", walDir: dir + "/repo.gksidx.wal"}

	docs := make([]*gks.Document, 0, initialDocs)
	for i := 0; i < initialDocs; i++ {
		name := fmt.Sprintf("seed-%d.xml", i)
		xml := docXML(rng, 0)
		finals[name] = xml
		d, err := gks.ParseDocumentString(xml, name)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	sys, err := gks.IndexDocuments(docs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SaveIndexFile(n.indexPath); err != nil {
		t.Fatal(err)
	}
	if n.wal, err = wal.Open(n.walDir, wal.Options{SegmentBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.wal.Close() })

	n.api = server.New(sys)
	n.rl = server.NewReloader(n.api, n.loadSys, nil, nil)
	persist := func(s gks.Searcher) error { return s.(*gks.System).SaveIndexFile(n.indexPath) }
	// Aggressive checkpointing (every 5 mutations) keeps truncating the
	// log out from under slow followers, forcing the 410 → snapshot
	// re-install transition under test.
	ckpt := server.NewCheckpointer(n.rl, n.wal, persist, 5, nil, nil)
	ing := server.NewIngester(n.rl, persist, nil, nil)
	ing.EnableWAL(n.wal, ckpt.Notify)
	ctx, cancel := context.WithCancel(context.Background())
	n.stop = cancel
	n.runDone = make(chan struct{})
	go func() { defer close(n.runDone); ckpt.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-n.runDone })

	leader := &replica.Leader{
		Log:            n.wal,
		Snapshot:       n.rl.ReplicaSource(n.wal),
		HeartbeatEvery: 50 * time.Millisecond,
		BatchRecords:   7,
	}
	mux := http.NewServeMux()
	mux.Handle("/", n.api)
	mux.Handle("/admin/docs", ing.Handler())
	mux.Handle("/admin/docs/", ing.Handler())
	leader.Routes(mux)
	mux.Handle("/healthz", &server.Health{Handler: n.api, Role: "leader", WAL: n.wal, Checkpoint: ckpt})
	n.srv = httptest.NewServer(mux)
	t.Cleanup(n.srv.Close)
	return n
}

// startFollower boots (or re-boots, when dirs is non-nil) a follower.
// client carries the (possibly fault-injected) transport for the
// replication stream; the boot-time join uses a clean client, like a
// process that got far enough to start would.
func startFollower(t *testing.T, leaderURL string, client *http.Client, dirs *node) *node {
	t.Helper()
	n := dirs
	if n == nil {
		dir := t.TempDir()
		n = &node{indexPath: dir + "/replica.gksidx", walDir: dir + "/replica.gksidx.wal"}
	}
	n.t = t

	var err error
	if n.wal, err = wal.Open(n.walDir, wal.Options{SegmentBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	needJoin := server.InstallPending(n.walDir)
	if !needJoin {
		if _, err := os.Stat(n.indexPath); err != nil {
			needJoin = true
		}
	}
	if needJoin {
		if err := server.JoinCluster(leaderURL, nil, n.indexPath, n.wal, nil); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	sys, err := n.loadSys()
	if err != nil {
		t.Fatalf("follower boot: %v", err)
	}

	n.api = server.New(sys)
	n.rl = server.NewReloader(n.api, n.loadSys, nil, nil)
	persist := func(s gks.Searcher) error { return s.(*gks.System).SaveIndexFile(n.indexPath) }
	ckpt := server.NewCheckpointer(n.rl, n.wal, persist, 8, nil, nil)
	n.applier = server.NewReplicaApplier(n.rl, n.wal, n.indexPath, nil, nil, ckpt.Notify)
	n.fl, err = replica.NewFollower(replica.Config{
		Leader:           leaderURL,
		Client:           client,
		Applier:          n.applier,
		MaxLag:           64,
		HeartbeatTimeout: time.Second,
		ReconnectMin:     5 * time.Millisecond,
		ReconnectMax:     80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.stop = cancel
	n.runDone = make(chan struct{})
	// The checkpointer deliberately runs on a background context: an
	// abandoned node must never take the orderly final checkpoint a real
	// SIGKILL would skip.
	go ckpt.Run(context.Background())
	go func() {
		defer close(n.runDone)
		if err := n.fl.Run(ctx); err != nil && ctx.Err() == nil {
			t.Errorf("follower run: %v", err)
		}
	}()

	mux := http.NewServeMux()
	mux.Handle("/", n.api)
	mux.Handle("/healthz", &server.Health{
		Handler: n.api, Role: "follower", WAL: n.wal, Checkpoint: ckpt,
		Ready:   n.fl.Ready,
		Replica: func() any { return n.fl.Status() },
	})
	if n.ln != nil {
		// Restart on the same address so a router keeps probing the same URL.
		ln, err := net.Listen("tcp", n.ln.Addr().String())
		if err != nil {
			t.Fatalf("relisten: %v", err)
		}
		n.ln = ln
		n.srv = &httptest.Server{Listener: ln, Config: &http.Server{Handler: mux}}
		n.srv.Start()
	} else {
		n.srv = httptest.NewServer(mux)
	}
	// Register end-of-test teardown for THIS incarnation (a node can be
	// abandoned and restarted, so capture, don't reach through n). It is
	// safe to run after an explicit abandon: cancel, closed-channel
	// receive and httptest Close are all idempotent. Cleanups run LIFO,
	// so every follower tears down before the leader closes, which is
	// what lets the leader's server drain its replication streams.
	incSrv, incWAL, incDone := n.srv, n.wal, n.runDone
	t.Cleanup(func() {
		cancel()
		<-incDone
		incSrv.CloseClientConnections()
		incSrv.Close()
		incWAL.Close()
	})
	return n
}

// abandon simulates SIGKILL for an in-process node: stop the loops and
// the listener, take no final checkpoint, never close the WAL. Only
// fsynced state survives into a restart, exactly like a killed process
// on a surviving machine.
func (n *node) abandon() {
	n.stop()
	<-n.runDone
	n.srv.CloseClientConnections()
	n.srv.Close()
}

func httpGet(t *testing.T, rawURL string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatalf("GET %s: %v", rawURL, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", rawURL, err)
	}
	return resp.StatusCode, body
}

func searchPath(q string) string {
	v := url.Values{}
	v.Set("q", q)
	v.Set("s", "1")
	return "/search?" + v.Encode()
}

// upsertDoc posts one document to the leader's live-ingestion endpoint.
func upsertDoc(t *testing.T, leaderURL, name, xml string) {
	t.Helper()
	body := fmt.Sprintf("{\"name\":%s,\"xml\":%s}", strconv.Quote(name), strconv.Quote(xml))
	resp, err := http.Post(leaderURL+"/admin/docs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("upsert %s: %v", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("upsert %s: %d: %s", name, resp.StatusCode, msg)
	}
}

func deleteDoc(t *testing.T, leaderURL, name string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, leaderURL+"/admin/docs/"+url.PathEscape(name), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete %s: %v", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("delete %s: %d: %s", name, resp.StatusCode, msg)
	}
}

// waitCaughtUp blocks until the follower's durable applied LSN reaches
// the leader's last LSN (the leader must be quiesced).
func waitCaughtUp(t *testing.T, label string, leader *node, f *node) {
	t.Helper()
	want := leader.wal.LastLSN()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if f.applier.AppliedLSN() >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s: not caught up: applied %d, leader at %d (status %+v)",
		label, f.applier.AppliedLSN(), want, f.fl.Status())
}

// waitReady blocks until the follower reports ready — catch-up alone is
// not enough: readiness additionally requires the follower to have
// observed the leader's durable watermark on a heartbeat.
func waitReady(t *testing.T, label string, f *node) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !f.fl.Ready() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never turned ready: %+v", label, f.fl.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// docInsensitiveResults projects a search response onto everything but
// the internal document IDs, which boot replay may legally renumber.
func docInsensitiveResults(t *testing.T, sys gks.Searcher, q string) []string {
	t.Helper()
	resp, err := sys.Search(context.Background(), gks.SearchRequest{Query: gks.ParseQuery(q), S: 1})
	if err != nil {
		t.Fatalf("search %q: %v", q, err)
	}
	keys := make([]string, 0, len(resp.Results))
	for _, r := range resp.Results {
		id := r.ID.String()
		rel := ""
		if i := strings.IndexByte(id, '.'); i >= 0 {
			rel = id[i+1:]
		}
		kws := append([]string(nil), resp.KeywordsOf(r)...)
		sort.Strings(kws)
		keys = append(keys, strings.Join([]string{
			rel, r.Label, strconv.FormatFloat(r.Rank, 'g', 12, 64),
			strconv.Itoa(r.KeywordCount), strings.Join(kws, ","),
		}, "|"))
	}
	sort.Strings(keys)
	return keys
}

// assertStateEqual checks two systems hold the same logical state:
// identical stats, document sets, and doc-ID-insensitive result
// multisets for the oracle queries.
func assertStateEqual(t *testing.T, label string, want, got gks.Searcher) {
	t.Helper()
	if w, g := want.Stats(), got.Stats(); w != g {
		t.Fatalf("%s: stats %+v, want %+v", label, g, w)
	}
	ws := want.(*gks.System)
	gs := got.(*gks.System)
	wn := append([]string(nil), ws.DocNames()...)
	gn := append([]string(nil), gs.DocNames()...)
	sort.Strings(wn)
	sort.Strings(gn)
	if strings.Join(wn, "\n") != strings.Join(gn, "\n") {
		t.Fatalf("%s: documents %v, want %v", label, gn, wn)
	}
	for _, q := range oracleQueries {
		w := docInsensitiveResults(t, want, q)
		g := docInsensitiveResults(t, got, q)
		if strings.Join(w, "\n") != strings.Join(g, "\n") {
			t.Fatalf("%s: q=%q results diverge:\ngot  %v\nwant %v", label, q, g, w)
		}
	}
}

// coldRebuild indexes the final document set from scratch — the
// single-node oracle every recovered replica must match.
func coldRebuild(t *testing.T, finals map[string]string) *gks.System {
	t.Helper()
	names := make([]string, 0, len(finals))
	for name := range finals {
		names = append(names, name)
	}
	sort.Strings(names)
	docs := make([]*gks.Document, 0, len(names))
	for _, name := range names {
		d, err := gks.ParseDocumentString(finals[name], name)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	sys, err := gks.IndexDocuments(docs...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// faultSchedule precomputes deterministic per-dial fault plans: refused
// dials, delayed reads, and connections cut mid-frame after a byte
// budget. Faults thin out with the dial count so every schedule
// eventually lets the follower through.
func faultSchedule(seed int64, dials int) func(int) faultnet.Plan {
	rng := rand.New(rand.NewSource(seed))
	plans := make([]faultnet.Plan, dials)
	for i := range plans {
		switch r := rng.Intn(100); {
		case r < 15:
			plans[i].FailDial = true
		case r < 40:
			plans[i].CutAfterRead = int64(40 + rng.Intn(3000))
		case r < 50:
			plans[i].CutAfterWrite = int64(16 + rng.Intn(120))
		case r < 65:
			plans[i].ReadDelay = time.Duration(1+rng.Intn(8)) * time.Millisecond
		}
	}
	return func(n int) faultnet.Plan {
		if n < len(plans) {
			return plans[n]
		}
		return faultnet.Plan{}
	}
}

// TestClusterConvergesUnderFaults is the replication property test:
// a leader ingests a randomized mutation history while one follower
// tails it through a scripted fault schedule (drops, delays, mid-frame
// truncations, periodic severing of every connection) and another is
// SIGKILLed mid-stream and restarted from its surviving disk state.
// Afterwards the faulted follower must serve /search responses
// byte-identical to the leader's, and every node — including the
// killed-and-recovered one — must match a cold single-node rebuild of
// the final document set.
func TestClusterConvergesUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster property test (multi-second)")
	}
	for trial := 0; trial < 2; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed%d", trial), func(t *testing.T) {
			seed := int64(0xC0FFEE + 7*trial)
			rng := rand.New(rand.NewSource(seed))
			finals := map[string]string{}

			leader := startLeader(t, rng, finals, 6)

			dialer := &faultnet.Dialer{Schedule: faultSchedule(seed^0x5EED, 400)}
			faultClient := &http.Client{Transport: &http.Transport{DialContext: dialer.DialContext}}
			faulted := startFollower(t, leader.srv.URL, faultClient, nil)
			victim := startFollower(t, leader.srv.URL, nil, nil)

			const mutations = 48
			killAt := 16 + rng.Intn(16)
			var restarted *node
			for i := 0; i < mutations; i++ {
				switch r := rng.Intn(100); {
				case r < 15 && len(finals) > 2:
					names := make([]string, 0, len(finals))
					for name := range finals {
						names = append(names, name)
					}
					sort.Strings(names)
					name := names[rng.Intn(len(names))]
					deleteDoc(t, leader.srv.URL, name)
					delete(finals, name)
				case r < 55:
					name := fmt.Sprintf("live-%d.xml", rng.Intn(24))
					xml := docXML(rng, i+1)
					upsertDoc(t, leader.srv.URL, name, xml)
					finals[name] = xml
				default:
					names := make([]string, 0, len(finals))
					for name := range finals {
						names = append(names, name)
					}
					sort.Strings(names)
					name := names[rng.Intn(len(names))]
					xml := docXML(rng, i+1)
					upsertDoc(t, leader.srv.URL, name, xml)
					finals[name] = xml
				}
				if i == killAt {
					victim.abandon() // SIGKILL mid-stream: no checkpoint, no close
				}
				if i == killAt+8 {
					restarted = startFollower(t, leader.srv.URL, nil, victim)
				}
				if i%12 == 11 {
					dialer.SeverAll()
				}
			}
			if restarted == nil {
				restarted = startFollower(t, leader.srv.URL, nil, victim)
			}

			waitCaughtUp(t, "faulted follower", leader, faulted)
			waitCaughtUp(t, "restarted follower", leader, restarted)

			// Byte-identity: a follower that never restarted mirrors the
			// leader's responses exactly, faults notwithstanding.
			for _, q := range oracleQueries {
				_, want := httpGet(t, leader.srv.URL+searchPath(q))
				_, got := httpGet(t, faulted.srv.URL+searchPath(q))
				if string(want) != string(got) {
					t.Fatalf("faulted follower diverges on %q:\nleader   %s\nfollower %s", q, want, got)
				}
			}

			// Every node matches a cold rebuild of the final corpus
			// (boot replay may renumber internal doc IDs, so the
			// restarted node is compared doc-ID-insensitively).
			oracle := coldRebuild(t, finals)
			assertStateEqual(t, "leader vs cold rebuild", oracle, leader.api.Searcher())
			assertStateEqual(t, "faulted follower vs cold rebuild", oracle, faulted.api.Searcher())
			assertStateEqual(t, "restarted follower vs cold rebuild", oracle, restarted.api.Searcher())

			if st := faulted.fl.Status(); st.Reconnects == 0 && dialer.Dials() < 2 {
				t.Fatalf("fault schedule exercised nothing: %+v, %d dials", st, dialer.Dials())
			}
		})
	}
}

// TestRouterFailoverAndPartial drives the router contract: full answers
// while all replicas serve, partial-flagged uncached answers while one
// is down, full answers again after re-admission.
func TestRouterFailoverAndPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	finals := map[string]string{}
	leader := startLeader(t, rng, finals, 6)
	f1 := startFollower(t, leader.srv.URL, nil, nil)
	f2 := startFollower(t, leader.srv.URL, nil, nil)
	f2.ln = f2.srv.Listener // remember the address for the restart
	waitCaughtUp(t, "f1", leader, f1)
	waitCaughtUp(t, "f2", leader, f2)
	waitReady(t, "f1", f1)
	waitReady(t, "f2", f2)

	router, err := replica.NewRouter(replica.RouterConfig{
		Replicas:    []string{f1.srv.URL, f2.srv.URL},
		Leader:      leader.srv.URL,
		HealthEvery: time.Hour, // probes driven manually via CheckNow
		Timeout:     2 * time.Second,
		Retries:     2,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	router.Routes(mux)
	rsrv := httptest.NewServer(mux)
	defer rsrv.Close()
	ctx := context.Background()

	if n := router.CheckNow(ctx); n != 2 {
		t.Fatalf("healthy replicas: %d, want 2", n)
	}

	q := searchPath("apple pear")
	getJSON := func() (partial bool, cacheControl string) {
		t.Helper()
		resp, err := http.Get(rsrv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("router search: %d: %s", resp.StatusCode, body)
		}
		return strings.Contains(string(body), "\"partial\":true"), resp.Header.Get("Cache-Control")
	}

	// Healthy cluster: full answers, untouched headers.
	if partial, cc := getJSON(); partial || cc == "no-store" {
		t.Fatalf("healthy cluster answered partial=%v cache-control=%q", partial, cc)
	}

	// Mutations forwarded to the leader through the router.
	body := `{"name":"via-router.xml","xml":"<paper><title>apple pear</title></paper>"}`
	resp, err := http.Post(rsrv.URL+"/admin/docs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("router-forwarded upsert: %d: %s", resp.StatusCode, msg)
	}
	finals["via-router.xml"] = `<paper><title>apple pear</title></paper>`
	waitCaughtUp(t, "f1 after forwarded write", leader, f1)
	waitCaughtUp(t, "f2 after forwarded write", leader, f2)

	// Kill f2 mid-service: the next queries must keep answering (via
	// f1), flagged partial and uncacheable while the set is degraded.
	f2.abandon()
	router.CheckNow(ctx)
	for i := 0; i < 4; i++ {
		partial, cc := getJSON()
		if !partial || cc != "no-store" {
			t.Fatalf("degraded cluster answered partial=%v cache-control=%q, want partial no-store", partial, cc)
		}
	}
	code, hbody := httpGet(t, rsrv.URL+"/healthz")
	if code != 200 || !strings.Contains(string(hbody), "\"status\":\"degraded\"") {
		t.Fatalf("router healthz while degraded: %d %s", code, hbody)
	}

	// Restart f2 on the same address; once it catches back up and a
	// probe passes, it is re-admitted and answers turn full again.
	f2r := startFollower(t, leader.srv.URL, nil, f2)
	waitCaughtUp(t, "restarted f2", leader, f2r)
	deadline := time.Now().Add(30 * time.Second)
	for router.CheckNow(ctx) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("f2 never re-admitted: %+v", f2r.fl.Status())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if partial, cc := getJSON(); partial || cc == "no-store" {
		t.Fatalf("recovered cluster answered partial=%v cache-control=%q", partial, cc)
	}
}

// TestFollowerReadiness pins the /healthz?ready state machine: not
// ready before first catch-up, ready once caught up, still ready while
// disconnected (stale reads are the contract), not ready while lagging
// past MaxLag on a live connection.
func TestFollowerReadiness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	finals := map[string]string{}
	leader := startLeader(t, rng, finals, 4)
	f := startFollower(t, leader.srv.URL, nil, nil)
	waitCaughtUp(t, "f", leader, f)

	deadline := time.Now().Add(10 * time.Second)
	for !f.fl.Ready() {
		if time.Now().After(deadline) {
			t.Fatalf("follower never turned ready: %+v", f.fl.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	code, _ := httpGet(t, f.srv.URL+"/healthz?ready")
	if code != 200 {
		t.Fatalf("ready probe after catch-up: %d", code)
	}

	// Leader goes away entirely: the follower keeps serving stale reads
	// and stays ready.
	leader.srv.CloseClientConnections()
	leader.srv.Close()
	time.Sleep(50 * time.Millisecond)
	if !f.fl.Ready() {
		t.Fatalf("disconnected follower dropped readiness: %+v", f.fl.Status())
	}
	code, _ = httpGet(t, f.srv.URL+"/healthz?ready")
	if code != 200 {
		t.Fatalf("ready probe while disconnected: %d", code)
	}
}
