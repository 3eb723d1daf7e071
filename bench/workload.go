package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"

	gks "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/textproc"
	"repro/internal/xmltree"
)

// corpusSeed fixes the corpus and the query population of every workload.
// The run's -seed drives what may vary without changing how much work a
// run holds — the order of requests, the Zipf draws, the ingested
// documents — because the gate compares medians taken over different
// seeds: a population redrawn per seed would move every metric by its
// sampling error (64 queries whose costs span 100x) and hide a 10% change.
const corpusSeed = 42

// workload describes one traffic mix and the server it runs against.
type workload struct {
	name       string
	why        string
	analogs    []string
	scale      int
	gks4       bool // persist as a GKS4 segment instead of a GKS3 snapshot
	packed     bool // persist the DAG-compressed node table
	cache      int  // gksd -cache: response LRU entries, 0 = off
	blockCache int  // gksd -block-cache-mb, GKS4 only
	walOff     bool // gksd -wal-dir off
	warmup     int  // requests per connection before the timed window
	ingest     bool
	// population builds the distinct requests from the built system, the
	// persisted index loaded back (with its posting-block count when it is
	// a segment) and the generated trees.
	population func(sys *gks.System, ix *index.Index, blocks int, docs []*gks.Document) []request
	// pick draws the next request of one client's stream.
	pick func(rng *rand.Rand, zipf *rand.Zipf, n int) (idx int, insights bool)
}

const (
	zipfS          = 1.1
	zipfPopulation = 2048
	insightsShare  = 0.10
	insightsM      = 5
	topK           = 10
)

func uniformPick(rng *rand.Rand, _ *rand.Zipf, n int) (int, bool) { return rng.Intn(n), false }

func zipfPick(rng *rand.Rand, zipf *rand.Zipf, _ int) (int, bool) {
	return int(zipf.Uint64()), rng.Float64() < insightsShare
}

func workloads() []*workload {
	bib := []string{"dblp", "sigmod"}
	return []*workload{
		{
			name:    "rank_heavy",
			why:     "64 n=8 queries at s=2 on NASA+SwissProt, response cache off: the engine, mostly rank, does the work",
			analogs: []string{"nasa", "swissprot"}, scale: 10,
			warmup:     32,
			population: rankHeavyPopulation, pick: uniformPick,
		},
		{
			name:    "serve_zipf",
			why:     "Zipf(1.1) over 2048 cheap DBLP+SIGMOD queries, default cache 256, 10% /insights: server, cache and net/http dominate",
			analogs: bib, scale: 10,
			cache:      256,
			warmup:     250,
			population: bibPopulation, pick: zipfPick,
		},
		{
			name:    "cold_segment",
			why:     "2-3 keyword AND queries spread over every posting block of a GKS4 segment behind a 1 MiB block cache: fetch and inflate dominate",
			analogs: []string{"nasa", "swissprot", "dblp", "sigmod"}, scale: 16, gks4: true,
			blockCache: 1,
			walOff:     true,
			warmup:     250,
			population: coldPopulation, pick: uniformPick,
		},
		{
			name:    "ingest_mixed",
			why:     "one writer (70% add, 20% replace, 10% delete of 20 KB documents) beside one serve_zipf reader, then SIGKILL and restart: WAL, checkpoints, repacks, cache purges",
			analogs: bib, scale: 10, packed: true,
			cache:      256,
			warmup:     250,
			ingest:     true,
			population: bibPopulation, pick: zipfPick,
		},
	}
}

func generate(analog string, scale int) *gks.Document {
	cfg := datagen.Config{Seed: corpusSeed, Scale: scale}
	switch analog {
	case "nasa":
		return datagen.NASA(cfg)
	case "swissprot":
		return datagen.SwissProt(cfg)
	case "dblp":
		return datagen.PaperDBLP(scale)
	case "sigmod":
		return datagen.PaperSigmod(scale)
	}
	panic("unknown analog " + analog)
}

// request is one distinct (query, s) of a workload's population with the
// answers the server must give.
type request struct {
	query       string
	s           int
	searchURL   string // path and query string
	insightsURL string
	want        answer
	wantDI      []insightAnswer // filled for workloads that send /insights
}

func newRequest(q gks.Query, s int) request {
	text := q.String()
	v := "q=" + url.QueryEscape(text) + "&s=" + strconv.Itoa(s)
	return request{
		query: text, s: s,
		searchURL:   "/search?" + v + "&top=" + strconv.Itoa(topK),
		insightsURL: "/insights?" + v + "&m=" + strconv.Itoa(insightsM),
	}
}

// figurePools are the keyword pools of the paper's Figure 8 and 9 analogs:
// per dataset, sixteen keywords from frequent element names down to values.
var figurePools = [][]string{
	{"author", "title", "reference", "year", "lastname", "dataset", "quasar", "pulsar", "nebula", "supernova", "galaxy", "cluster", "comet", "asteroid", "magnetar", "exoplanet"},
	{"Entry", "Author", "Keyword", "Descr", "Ref", "Features", "Kinase", "Hydrolase", "Helicase", "Transferase", "Bacteria", "Eukaryota", "Zinc", "Membrane", "Signal", "Protease"},
}

// rankHeavyPopulation is the Figure 8 workload, 64 queries of n=8 keywords
// at s=2: per dataset the five sliding windows over its pool and 22 random
// 8-subsets of it, then 10 queries sampled across the vocabulary's
// posting-length quartiles. The sampled ones are mostly rare keywords and
// answer in microseconds; they are kept few, so that the median request as
// well as the slow tail is one the engine works tens of milliseconds on.
func rankHeavyPopulation(_ *gks.System, ix *index.Index, _ int, _ []*gks.Document) []request {
	var out []request
	rng := rand.New(rand.NewSource(corpusSeed))
	seen := map[string]bool{}
	add := func(terms []string) {
		r := newRequest(core.NewQuery(terms...), 2)
		if !seen[r.query] {
			seen[r.query] = true
			out = append(out, r)
		}
	}
	for _, pool := range figurePools {
		for shift := 0; shift+8 <= len(pool); shift += 2 {
			add(pool[shift : shift+8])
		}
		for want := len(out) + 22; len(out) < want; {
			perm := rng.Perm(len(pool))[:8]
			sort.Ints(perm)
			terms := make([]string, 8)
			for i, j := range perm {
				terms[i] = pool[j]
			}
			add(terms)
		}
	}
	for _, q := range experiments.SampleQueries(ix, 8, 64-len(out), corpusSeed) {
		out = append(out, newRequest(q, 2))
	}
	return out
}

// bibPopulation is the serving workload: the paper's Table 6 queries on
// the two bibliographies first (so they are the hottest Zipf ranks), then
// queries of 2-4 author names and title words at s=1 and s=|Q|.
func bibPopulation(_ *gks.System, _ *index.Index, _ int, docs []*gks.Document) []request {
	var out []request
	add := func(terms []string) {
		q := core.NewQuery(terms...)
		out = append(out, newRequest(q, 1), newRequest(q, q.Len()))
	}
	for _, pq := range datagen.PaperQueries() {
		if pq.Dataset == "dblp" || pq.Dataset == "sigmod" {
			add(pq.Terms)
		}
	}
	// A title word occurs in thousands of entries, so at s=1 it alone makes
	// a response of thousands of nodes and the engine, not the server, the
	// cost. Queries holding one are asked at s=|Q| only.
	authors, words := bibTerms(docs)
	rng := rand.New(rand.NewSource(corpusSeed))
	seen := map[string]bool{}
	for len(out) < zipfPopulation {
		terms := make([]string, 2+rng.Intn(3))
		titled := false
		for i := range terms {
			if rng.Intn(4) == 0 {
				terms[i], titled = words[rng.Intn(len(words))], true
			} else {
				terms[i] = authors[rng.Intn(len(authors))]
			}
		}
		key := strings.Join(terms, "|")
		q := core.NewQuery(terms...)
		if q.Len() != len(terms) || seen[key] {
			continue
		}
		seen[key] = true
		if titled {
			out = append(out, newRequest(q, q.Len()))
		} else {
			add(terms)
		}
	}
	return out[:zipfPopulation]
}

// bibTerms collects the distinct author names and title words of the
// bibliographies, sorted.
func bibTerms(docs []*gks.Document) (authors, words []string) {
	as, ws := map[string]bool{}, map[string]bool{}
	for _, d := range docs {
		xmltree.Walk(d.Root, func(n *xmltree.Node) bool {
			switch n.Label {
			case "author":
				as[n.Value()] = true
			case "title":
				for _, w := range textproc.Tokenize(n.Value()) {
					if !textproc.IsStopword(w) {
						ws[w] = true
					}
				}
			}
			return true
		})
	}
	for a := range as {
		authors = append(authors, a)
	}
	for w := range ws {
		words = append(words, w)
	}
	sort.Strings(authors)
	sort.Strings(words)
	return authors, words
}

const (
	coldPopulationSize = 4096
	// coldMaxPostings leaves out the few dozen keywords (element names,
	// mostly) with longer lists: a query holding one spends more time in
	// the engine scanning S_L than the segment spends fetching the block.
	coldMaxPostings = 1000
)

// coldPopulation spreads keywords over the segment's posting blocks. The
// writer fills blocks with whole posting lists in term order, so cutting
// the sorted vocabulary into as many equal shares of postings as the
// segment has blocks gives one stratum per block, near enough; a keyword
// is a uniform stratum, then a uniform term inside it. Drawing uniformly
// from the vocabulary instead would miss the point: its 15 000 rare terms
// share a handful of blocks, and the block cache hit ratio stays at 0.99.
func coldPopulation(sys *gks.System, _ *index.Index, blocks int, _ []*gks.Document) []request {
	vocab := sys.TopKeywords(0)
	sort.Slice(vocab, func(i, j int) bool { return vocab[i].Keyword < vocab[j].Keyword })
	total := 0
	for _, kf := range vocab {
		total += kf.Count
	}
	strata := make([][]string, blocks)
	seenMass := 0
	for _, kf := range vocab {
		b := min(seenMass*blocks/total, blocks-1)
		seenMass += kf.Count
		// A term must survive the query parser unchanged to reach its list.
		if q := core.NewQuery(kf.Keyword); kf.Count <= coldMaxPostings && q.Len() == 1 && len(q.Keywords[0].Tokens) == 1 && q.Keywords[0].Tokens[0] == kf.Keyword {
			strata[b] = append(strata[b], kf.Keyword)
		}
	}
	nonEmpty := strata[:0]
	for _, s := range strata {
		if len(s) > 0 {
			nonEmpty = append(nonEmpty, s)
		}
	}
	rng := rand.New(rand.NewSource(corpusSeed))
	seen := map[string]bool{}
	var out []request
	for len(out) < coldPopulationSize {
		terms := make([]string, 2+rng.Intn(2))
		for i := range terms {
			s := nonEmpty[rng.Intn(len(nonEmpty))]
			terms[i] = s[rng.Intn(len(s))]
		}
		key := strings.Join(terms, " ")
		if q := core.NewQuery(terms...); q.Len() == len(terms) && !seen[key] {
			seen[key] = true
			out = append(out, newRequest(q, q.Len()))
		}
	}
	return out
}

// ingestDoc builds version v of the n-th ingested document: about 20 KB of
// XML whose labels and tokens all start with "zq", a prefix no corpus word
// has, so reader answers do not change as documents come and go. The
// version token is unique to (n, v) and is what the durability check
// searches for. The <zqnote> element repeats its own name as a value token,
// the collision that once broke snapshot saves.
func ingestDoc(seed int64, n, v int) (name, token, xml string) {
	name, token = ingestName(n), ingestToken(n, v)
	rng := rand.New(rand.NewSource(seed<<20 ^ int64(n)<<8 ^ int64(v)))
	word := func() string {
		k := rng.Intn(5000)
		return "zq" + string(rune('a'+k%26)) + string(rune('a'+k/26%26)) + string(rune('a'+k/676%26))
	}
	var b strings.Builder
	// The token sits in a record of its own: the engine answers with
	// entity nodes, and a value directly under the document root has none.
	b.WriteString("<zqdoc><zqrec><zqfield>" + word() + "</zqfield><zqkey>" + token + "</zqkey></zqrec>")
	b.WriteString("<zqrec><zqnote>zqnote " + word() + "</zqnote><zqkey>" + word() + "</zqkey></zqrec>")
	for b.Len() < 20<<10 {
		b.WriteString("<zqrec>")
		for f := 0; f < 2+rng.Intn(3); f++ {
			b.WriteString("<zqfield>" + word() + " " + word() + " " + word() + "</zqfield>")
		}
		b.WriteString("<zqkey>" + word() + "</zqkey></zqrec>")
	}
	b.WriteString("</zqdoc>")
	return name, token, b.String()
}

func ingestName(n int) string { return fmt.Sprintf("ingest-%05d.xml", n) }

func ingestToken(n, v int) string { return fmt.Sprintf("zqv%dx%d", n, v) }
