// Command gks is the interactive front end of the Generic Keyword Search
// system: it indexes XML repositories, runs GKS searches with a tunable
// threshold s, reports the LCA baselines and discovers Deeper Analytical
// Insights.
//
// Usage:
//
//	gks index   -out repo.gksidx [-format gks3|gks4] file.xml [file.xml ...]
//	gks add     -index repo.gksidx file.xml [file.xml ...]
//	gks remove  -index repo.gksidx docname [docname ...]
//	gks search  [-index repo.gksidx | -files a.xml,b.xml] [-s N] [-top K]
//	            [-di M] [-baselines] [-chunks] "query terms"
//	gks stats   -index repo.gksidx
//	gks convert -in repo.gksidx -out repo.gks4 -format gks4
//
// -format gks4 writes the GKS4 segment layout: postings live in
// fixed-size blocks fetched lazily at query time behind a bounded block
// cache, so serving memory stays far below the index size.
// convert rewrites an existing snapshot between the formats. add and remove
// preserve the format of the file they mutate.
//
// add and remove mutate a saved index (or shard manifest) in place without
// a rebuild: add upserts each document by name (replacing a same-named one)
// and remove deletes by document name; the updated snapshot is written back
// crash-safely before the command reports success.
//
// When a gksd write-ahead log sits next to the index (the daemon's default
// is the boot path plus ".wal"), add, remove, search and stats fold the
// log's surviving records into the loaded snapshot first, so offline
// commands see every mutation the daemon acknowledged. add and remove then
// truncate the log after their save — the fresh snapshot supersedes it.
// Use -wal-dir to point at a log elsewhere, or -wal-dir=off to ignore one.
//
// Query strings support double-quoted phrases, e.g.
//
//	gks search -files dblp.xml -s 2 '"Peter Buneman" "Wenfei Fan" 2001'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	gks "repro"
	"repro/internal/wal"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "index":
		cmdIndex(os.Args[2:])
	case "add":
		cmdAdd(os.Args[2:])
	case "remove":
		cmdRemove(os.Args[2:])
	case "search":
		cmdSearch(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	case "convert":
		cmdConvert(os.Args[2:])
	case "repl":
		cmdRepl(os.Args[2:])
	case "xpath":
		cmdXPath(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gks {index|add|remove|search|stats|convert|repl|xpath} [flags] ...")
	fmt.Fprintln(os.Stderr, "  gks index   -out repo.gksidx [-format gks3|gks4] [-stream] [-lenient] [-shards N] file.xml ...")
	fmt.Fprintln(os.Stderr, "  gks add     -index repo.gksidx file.xml ...   (add or replace documents in place)")
	fmt.Fprintln(os.Stderr, "  gks remove  -index repo.gksidx docname ...    (delete documents in place)")
	fmt.Fprintln(os.Stderr, `  gks search  [-index repo.gksidx | -files a.xml,b.xml] [-s N] [-top K] [-di M] [-baselines] [-chunks] "query"`)
	fmt.Fprintln(os.Stderr, "  gks stats   -index repo.gksidx")
	fmt.Fprintln(os.Stderr, "  gks convert -in repo.gksidx -out repo.gks4 -format gks4   (rewrite between snapshot formats)")
	fmt.Fprintln(os.Stderr, "  gks repl    [-index repo.gksidx | -files a.xml,b.xml]")
	fmt.Fprintln(os.Stderr, `  gks xpath   -files a.xml,b.xml "//Course[Name=\"AI\"]/Students/Student"`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gks:", err)
	os.Exit(1)
}

func cmdIndex(args []string) {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	out := fs.String("out", "repo.gksidx", "output index file")
	stream := fs.Bool("stream", false, "single-pass streaming build (O(depth) memory, for large files)")
	lenient := fs.Bool("lenient", false, "skip unparsable XML files (reported on stderr) instead of failing the batch")
	shards := fs.Int("shards", 1, "partition the documents into N index shards built in parallel; writes a manifest plus one snapshot per shard")
	byTokens := fs.Bool("balance-tokens", false, "with -shards: balance shards by token count instead of hashing document names")
	format := fs.String("format", "gks3", "snapshot format: gks3 (in-memory snapshot) or gks4 (block segment, lazily loaded)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fatal(fmt.Errorf("no input files"))
	}
	if *format != "gks3" && *format != "gks4" {
		fatal(fmt.Errorf("unknown -format %q (want gks3 or gks4)", *format))
	}
	if *shards > 1 {
		if *format == "gks4" {
			fatal(fmt.Errorf("-format=gks4 applies to single-index builds; shard manifests reference gks3 snapshots"))
		}
		if *stream {
			fatal(fmt.Errorf("-shards and -stream are mutually exclusive"))
		}
		cmdIndexSharded(*out, *shards, *byTokens, *lenient, fs.Args())
		return
	}
	var sys *gks.System
	var err error
	switch {
	case *lenient:
		var skipped []gks.FileError
		sys, skipped, err = gks.IndexFilesLenient(fs.Args()...)
		for _, fe := range skipped {
			fmt.Fprintf(os.Stderr, "gks: skipping %s: %v\n", fe.Path, fe.Err)
		}
	case *stream:
		sys, err = gks.IndexFilesStreaming(fs.Args()...)
	default:
		sys, err = gks.IndexFiles(fs.Args()...)
	}
	if err != nil {
		fatal(err)
	}
	if *format == "gks4" {
		err = sys.SaveSegmentFile(*out)
	} else {
		err = sys.SaveIndexFile(*out)
	}
	if err != nil {
		fatal(err)
	}
	st := sys.Stats()
	fmt.Printf("indexed %d document(s): %d elements, %d entity nodes, %d distinct keywords -> %s\n",
		st.Documents, st.ElementNodes, st.EntityNodes, st.DistinctKeywords, *out)
}

// cmdConvert rewrites a saved single-index snapshot between the gks3 and
// gks4 physical layouts. The logical index is unchanged: searches over the
// converted file return byte-identical responses.
func cmdConvert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "source index file (gks3 snapshot or gks4 segment)")
	out := fs.String("out", "", "destination index file")
	format := fs.String("format", "gks4", "target format: gks3 or gks4")
	fs.Parse(args)
	if *in == "" || *out == "" {
		fatal(fmt.Errorf("gks convert requires -in and -out"))
	}
	if *format != "gks3" && *format != "gks4" {
		fatal(fmt.Errorf("unknown -format %q (want gks3 or gks4)", *format))
	}
	if isManifest(*in) {
		fatal(fmt.Errorf("%s is a shard manifest; convert its per-shard snapshots individually", *in))
	}
	sys, err := gks.LoadIndexFile(*in)
	if err != nil {
		fatal(err)
	}
	if *format == "gks4" {
		err = sys.SaveSegmentFile(*out)
	} else {
		err = sys.SaveIndexFile(*out)
	}
	if err != nil {
		fatal(err)
	}
	st := sys.Stats()
	fmt.Printf("converted %s -> %s (%s): %d document(s), %d distinct keywords\n",
		*in, *out, *format, st.Documents, st.DistinctKeywords)
}

// cmdIndexSharded builds an n-shard index set and writes it as a GKSM1
// manifest plus one snapshot file per shard next to it.
func cmdIndexSharded(out string, n int, byTokens, lenient bool, paths []string) {
	docs := make([]*gks.Document, 0, len(paths))
	for _, p := range paths {
		d, err := gks.ParseDocumentFile(p)
		if err != nil {
			if lenient {
				fmt.Fprintf(os.Stderr, "gks: skipping %s: %v\n", p, err)
				continue
			}
			fatal(err)
		}
		docs = append(docs, d)
	}
	if len(docs) == 0 {
		fatal(fmt.Errorf("no indexable files: all %d input file(s) failed to parse", len(paths)))
	}
	opts := gks.DefaultShardOptions(n)
	opts.ByTokens = byTokens
	set, err := gks.IndexDocumentsShardedOpts(opts, docs...)
	if err != nil {
		fatal(err)
	}
	if err := set.SaveManifest(out); err != nil {
		fatal(err)
	}
	st := set.Stats()
	fmt.Printf("indexed %d document(s) into %d shard(s): %d elements, %d entity nodes, %d distinct keywords -> %s\n",
		st.Documents, set.NumShards(), st.ElementNodes, st.EntityNodes, st.DistinctKeywords, out)
}

// cmdAdd upserts XML files into a saved index: each document is added by
// name, replacing a live same-named one, and the mutated snapshot (single
// index or shard manifest — sniffed from the file) is written back
// crash-safely. All documents are applied before the single save, so a
// multi-file add is atomic on disk.
func cmdAdd(args []string) {
	fs := flag.NewFlagSet("add", flag.ExitOnError)
	indexPath := fs.String("index", "", "saved index file or shard manifest to mutate in place")
	walDir := fs.String("wal-dir", "", "gksd write-ahead log to fold in and truncate (default: -index path + \".wal\" when present; \"off\" ignores it)")
	fs.Parse(args)
	if *indexPath == "" {
		fatal(fmt.Errorf("gks add requires -index"))
	}
	if fs.NArg() == 0 {
		fatal(fmt.Errorf("no input files"))
	}
	sys, err := loadSystem(*indexPath, "")
	if err != nil {
		fatal(err)
	}
	sys, l, err := foldWALTail(sys, *indexPath, *walDir)
	if err != nil {
		fatal(err)
	}
	for _, p := range fs.Args() {
		doc, err := gks.ParseDocumentFile(p)
		if err != nil {
			fatal(err)
		}
		next, replaced, err := sys.Upsert(doc)
		if err != nil {
			fatal(err)
		}
		sys = next
		verb := "added"
		if replaced {
			verb = "replaced"
		}
		fmt.Printf("%s %q\n", verb, doc.Name)
	}
	saveSystem(sys, *indexPath)
	truncateWAL(l)
}

// cmdRemove deletes documents by name from a saved index and writes the
// mutated snapshot back. Deleting every document is rejected — an index
// always holds at least one.
func cmdRemove(args []string) {
	fs := flag.NewFlagSet("remove", flag.ExitOnError)
	indexPath := fs.String("index", "", "saved index file or shard manifest to mutate in place")
	walDir := fs.String("wal-dir", "", "gksd write-ahead log to fold in and truncate (default: -index path + \".wal\" when present; \"off\" ignores it)")
	fs.Parse(args)
	if *indexPath == "" {
		fatal(fmt.Errorf("gks remove requires -index"))
	}
	if fs.NArg() == 0 {
		fatal(fmt.Errorf("no document names"))
	}
	sys, err := loadSystem(*indexPath, "")
	if err != nil {
		fatal(err)
	}
	sys, l, err := foldWALTail(sys, *indexPath, *walDir)
	if err != nil {
		fatal(err)
	}
	for _, name := range fs.Args() {
		next, err := sys.Remove(name)
		if err != nil {
			fatal(err)
		}
		sys = next
		fmt.Printf("removed %q\n", name)
	}
	saveSystem(sys, *indexPath)
	truncateWAL(l)
}

// saveSystem persists a mutated system back to the path it was loaded
// from, dispatching on its physical layout. The on-disk format is
// preserved: mutating a GKS4 segment writes a GKS4 segment back.
func saveSystem(sys gks.Searcher, path string) {
	var err error
	switch v := sys.(type) {
	case *gks.System:
		if isSegment(path) {
			err = v.SaveSegmentFile(path)
		} else {
			err = v.SaveIndexFile(path)
		}
	case *gks.ShardedSystem:
		err = v.SaveManifest(path)
	default:
		err = fmt.Errorf("cannot persist %T", sys)
	}
	if err != nil {
		fatal(err)
	}
	st := sys.Stats()
	fmt.Printf("index now holds %d document(s): %d elements, %d distinct keywords -> %s\n",
		st.Documents, st.ElementNodes, st.DistinctKeywords, path)
}

func loadSystem(indexPath, files string) (gks.Searcher, error) {
	return loadSystemLenient(indexPath, files, false)
}

func loadSystemLenient(indexPath, files string, lenient bool) (gks.Searcher, error) {
	switch {
	case files != "":
		paths := strings.Split(files, ",")
		if lenient {
			sys, skipped, err := gks.IndexFilesLenient(paths...)
			for _, fe := range skipped {
				fmt.Fprintf(os.Stderr, "gks: skipping %s: %v\n", fe.Path, fe.Err)
			}
			return sys, err
		}
		return gks.IndexFiles(paths...)
	case indexPath != "":
		if isManifest(indexPath) {
			return gks.LoadShardSet(indexPath)
		}
		return gks.LoadIndexFile(indexPath)
	}
	return nil, fmt.Errorf("provide -index or -files")
}

// foldWALTail folds a gksd write-ahead log's surviving records into a
// freshly loaded system, so offline commands operate on everything the
// daemon acknowledged — not just the last checkpoint. walDir "" auto-
// detects the daemon's default location (indexPath + ".wal") and is a
// silent no-op when no log exists there; "off" skips explicitly. The
// returned log is non-nil when one was folded in: mutating commands
// truncate and close it after their save supersedes it, read-only
// commands just close it.
func foldWALTail(sys gks.Searcher, indexPath, walDir string) (gks.Searcher, *wal.Log, error) {
	switch {
	case indexPath == "" || walDir == "off":
		return sys, nil, nil
	case walDir == "":
		walDir = indexPath + ".wal"
		if fi, err := os.Stat(walDir); err != nil || !fi.IsDir() {
			return sys, nil, nil
		}
	}
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("wal %s: %w", walDir, err)
	}
	recovered, n, err := gks.ReplayWAL(sys, l)
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "gks: replayed %d write-ahead-log record(s) from %s\n", n, walDir)
	}
	return recovered, l, nil
}

// truncateWAL drops every log record after a successful save: the snapshot
// just written contains them all. Failure is a warning, not an error — the
// log is merely redundant now, and replaying it again is idempotent.
func truncateWAL(l *wal.Log) {
	if l == nil {
		return
	}
	if _, err := l.TruncateThrough(l.LastLSN()); err != nil {
		fmt.Fprintf(os.Stderr, "gks: warning: truncating superseded write-ahead log: %v\n", err)
	}
	l.Close()
}

// isManifest sniffs the file's magic bytes so -index transparently accepts
// both single-index snapshots and shard-set manifests.
func isManifest(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [5]byte
	if _, err := f.Read(magic[:]); err != nil {
		return false
	}
	return string(magic[:]) == "GKSM1"
}

// isSegment sniffs for the GKS4 segment magic so mutating commands can
// write back the same physical format they loaded.
func isSegment(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false
	}
	return string(magic[:]) == "GKS4"
}

func cmdSearch(args []string) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	indexPath := fs.String("index", "", "saved index file")
	files := fs.String("files", "", "comma-separated XML files to index on the fly")
	sThresh := fs.Int("s", 1, "minimum number of query keywords per result subtree")
	top := fs.Int("top", 10, "number of results to print")
	diM := fs.Int("di", 3, "number of deeper analytical insights to print (0 to disable)")
	baselines := fs.Bool("baselines", false, "also print SLCA/ELCA baseline answers")
	chunks := fs.Bool("chunks", false, "print each result's XML chunk (requires -files)")
	explain := fs.Bool("explain", false, "print pipeline diagnostics")
	snippets := fs.Bool("snippets", false, "print highlighted snippets (requires -files)")
	pruned := fs.Bool("pruned", false, "print MaxMatch-style pruned chunks (requires -files)")
	lenient := fs.Bool("lenient", false, "with -files: skip unparsable XML files instead of failing")
	walDir := fs.String("wal-dir", "", "gksd write-ahead log to fold in before searching (default: -index path + \".wal\" when present; \"off\" ignores it)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fatal(fmt.Errorf("no query"))
	}
	sys, err := loadSystemLenient(*indexPath, *files, *lenient)
	if err != nil {
		fatal(err)
	}
	sys, l, err := foldWALTail(sys, *indexPath, *walDir)
	if err != nil {
		fatal(err)
	}
	if l != nil {
		l.Close() // read-only: the log stays for the daemon's checkpointer
	}
	// Snippets, pruned chunks and full chunks read the parsed document
	// trees, which only a single-index System built from -files retains.
	docSys, _ := sys.(*gks.System)
	if docSys == nil && (*snippets || *pruned || *chunks) {
		fmt.Fprintln(os.Stderr, "gks: -snippets/-pruned/-chunks need a single-index system built with -files; skipping")
		*snippets, *pruned, *chunks = false, false, false
	}
	q := gks.ParseQuery(strings.Join(fs.Args(), " "))
	var resp *gks.Response
	if *explain {
		ex, err := sys.Explain(context.Background(), q, *sThresh)
		if err != nil {
			fatal(err)
		}
		fmt.Print(ex.String())
		resp = ex.Response
	} else {
		var err error
		resp, err = sys.Search(context.Background(), gks.SearchRequest{Query: q, S: *sThresh})
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("query %s (|Q|=%d, s=%d): %d result(s), |S_L|=%d\n",
		resp.Query, resp.Query.Len(), resp.S, len(resp.Results), resp.SLSize)
	for _, kw := range resp.Query.Keywords {
		if len(kw.Tokens) == 1 && !sys.HasMatches(kw.Raw) {
			if sug := sys.Suggest(kw.Raw, 2, 1); len(sug) > 0 {
				fmt.Printf("  (no matches for %q — did you mean %q?)\n", kw.Raw, sug[0].Keyword)
			}
		}
	}
	for i, r := range resp.Results {
		if i >= *top {
			fmt.Printf("  ... %d more\n", len(resp.Results)-*top)
			break
		}
		kind := "LCP"
		if r.IsEntity {
			kind = "LCE"
		}
		fmt.Printf("%3d. <%s> %s  rank=%.3f  keywords=%d (%s)  [%s]\n",
			i+1, r.Label, r.ID, r.Rank, r.KeywordCount,
			strings.Join(resp.KeywordsOf(r), ", "), kind)
		if *snippets {
			lines, err := docSys.Snippet(resp, r, 4)
			if err != nil {
				fmt.Printf("     (snippet unavailable: %v)\n", err)
			}
			for _, l := range lines {
				fmt.Printf("     %s\n", l)
			}
		}
		if *pruned {
			chunk, err := docSys.PrunedChunk(resp, r)
			if err != nil {
				fmt.Printf("     (pruned chunk unavailable: %v)\n", err)
			} else {
				for _, line := range strings.Split(strings.TrimRight(chunk, "\n"), "\n") {
					fmt.Printf("     %s\n", line)
				}
			}
		}
		if *chunks {
			chunk, err := docSys.Chunk(r)
			if err != nil {
				fmt.Printf("     (chunk unavailable: %v)\n", err)
				continue
			}
			for _, line := range strings.Split(strings.TrimRight(chunk, "\n"), "\n") {
				fmt.Printf("     %s\n", line)
			}
		}
	}
	if *diM > 0 {
		fmt.Println("deeper analytical insights:")
		for _, in := range sys.Insights(resp, *diM) {
			fmt.Printf("  %s  (weight %.3f over %d node(s))\n", in, in.Weight, in.Count)
		}
		if refs := gks.Refinements(resp, 3); len(refs) > 0 {
			parts := make([]string, len(refs))
			for i, q := range refs {
				parts[i] = "{" + q.String() + "}"
			}
			fmt.Printf("refinement suggestions: %s\n", strings.Join(parts, ", "))
		}
	}
	if *baselines {
		fmt.Printf("SLCA baseline: %v\n", orNull(sys.SLCA(q)))
		fmt.Printf("ELCA baseline: %v\n", orNull(sys.ELCA(q)))
	}
}

func orNull(v []string) interface{} {
	if len(v) == 0 {
		return "NULL"
	}
	return v
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	indexPath := fs.String("index", "", "saved index file")
	files := fs.String("files", "", "comma-separated XML files to index on the fly")
	top := fs.Int("top", 0, "also print the N most frequent keywords and labels")
	walDir := fs.String("wal-dir", "", "gksd write-ahead log to fold in before reporting (default: -index path + \".wal\" when present; \"off\" ignores it)")
	fs.Parse(args)
	// Fast path: plain stats over a single-index file with no WAL tail to
	// fold in come from gks.ReadIndexStats — a GKS4 segment's footer alone,
	// or one verified load of a GKS3 snapshot — without building a system.
	if *top == 0 && *files == "" && *indexPath != "" && !isManifest(*indexPath) && !hasWALTail(*indexPath, *walDir) {
		st, err := gks.ReadIndexStats(*indexPath)
		if err != nil {
			fatal(err)
		}
		printStats(st)
		return
	}
	sys, err := loadSystem(*indexPath, *files)
	if err != nil {
		fatal(err)
	}
	sys, l, err := foldWALTail(sys, *indexPath, *walDir)
	if err != nil {
		fatal(err)
	}
	if l != nil {
		l.Close() // read-only: the log stays for the daemon's checkpointer
	}
	printStats(sys.Stats())
	if *top > 0 {
		single, ok := sys.(*gks.System)
		if !ok {
			// Histograms walk one node table; a sharded set has several.
			fmt.Fprintln(os.Stderr, "gks: -top breakdowns are unavailable for sharded indexes")
			return
		}
		fmt.Printf("top %d keywords:\n", *top)
		for _, kf := range single.TopKeywords(*top) {
			fmt.Printf("  %-24s %d\n", kf.Keyword, kf.Count)
		}
		fmt.Printf("top %d labels (count AN/RN/EN/CN):\n", *top)
		for i, lc := range single.LabelHistogram() {
			if i >= *top {
				break
			}
			fmt.Printf("  %-24s %d  %d/%d/%d/%d\n", lc.Label, lc.Count,
				lc.PerCategory[0], lc.PerCategory[1], lc.PerCategory[2], lc.PerCategory[3])
		}
		fmt.Printf("elements per depth: %v\n", single.DepthHistogram())
	}
}

func printStats(st gks.IndexStats) {
	fmt.Printf("documents:          %d\n", st.Documents)
	fmt.Printf("element nodes:      %d\n", st.ElementNodes)
	fmt.Printf("text nodes:         %d\n", st.TextNodes)
	fmt.Printf("attribute nodes:    %d\n", st.AttributeNodes)
	fmt.Printf("repeating nodes:    %d\n", st.RepeatingNodes)
	fmt.Printf("entity nodes:       %d\n", st.EntityNodes)
	fmt.Printf("connecting nodes:   %d\n", st.ConnectingNodes)
	fmt.Printf("distinct keywords:  %d\n", st.DistinctKeywords)
	fmt.Printf("posting entries:    %d\n", st.PostingEntries)
	fmt.Printf("max depth:          %d\n", st.MaxDepth)
}

// hasWALTail reports whether cmdStats must fold a write-ahead log before
// reporting — mirroring foldWALTail's detection rules — which forces the
// full snapshot load.
func hasWALTail(indexPath, walDir string) bool {
	switch {
	case walDir == "off":
		return false
	case walDir == "":
		fi, err := os.Stat(indexPath + ".wal")
		return err == nil && fi.IsDir()
	}
	return true
}

func cmdXPath(args []string) {
	fs := flag.NewFlagSet("xpath", flag.ExitOnError)
	files := fs.String("files", "", "comma-separated XML files")
	values := fs.Bool("values", false, "print node values instead of Dewey IDs")
	fs.Parse(args)
	if fs.NArg() == 0 || *files == "" {
		fatal(fmt.Errorf("usage: gks xpath -files a.xml \"//expr\""))
	}
	sys, err := loadSystem("", *files)
	if err != nil {
		fatal(err)
	}
	// loadSystem with -files always builds a single-index System.
	nodes, err := sys.(*gks.System).XPath(strings.Join(fs.Args(), " "))
	if err != nil {
		fatal(err)
	}
	for _, n := range nodes {
		if *values {
			fmt.Printf("%s\t%s\n", n.ID, n.Value())
		} else {
			fmt.Printf("%s\t<%s>\n", n.ID, n.Label)
		}
	}
	fmt.Fprintf(os.Stderr, "%d node(s)\n", len(nodes))
}
