package gks_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	gks "repro"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// TestFullPipeline exercises the whole system the way a deployment would:
// generate a repository to XML files on disk, stream-index them without
// materializing trees, persist the index in the binary format, reload it,
// and verify the paper's planted Table 7 ground truth end to end.
func TestFullPipeline(t *testing.T) {
	dir := t.TempDir()

	// 1. Materialize the DBLP and SIGMOD analogs as XML files.
	paths := map[string]string{}
	for name, doc := range map[string]*xmltree.Document{
		"dblp":   datagen.PaperDBLP(1),
		"sigmod": datagen.PaperSigmod(1),
	} {
		path := filepath.Join(dir, name+".xml")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := xmltree.WriteXML(f, doc); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths[name] = path
	}

	for name, path := range paths {
		// 2. Stream-index from disk (single pass, no tree).
		streamed, err := gks.IndexFilesStreaming(path)
		if err != nil {
			t.Fatalf("%s: stream index: %v", name, err)
		}

		// 3. Persist in the checksummed v3 snapshot format and reload:
		// SaveSnapshot streams the bytes, SaveIndexFile writes them with
		// the atomic-file discipline. Exercise both through the
		// auto-detecting loader.
		ixPath := filepath.Join(dir, name+".gksidx")
		var buf bytes.Buffer
		if err := streamed.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ixPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := streamed.SaveIndexFile(filepath.Join(dir, name+"-v3.gksidx")); err != nil {
			t.Fatal(err)
		}
		if _, err := gks.LoadIndexFile(filepath.Join(dir, name+"-v3.gksidx")); err != nil {
			t.Fatalf("%s: load v3 snapshot: %v", name, err)
		}
		loaded, err := gks.LoadIndexFile(ixPath)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}

		// 4. Verify the planted ground truth through the loaded index.
		for _, pq := range datagen.PaperQueries() {
			if pq.Dataset != name || !pq.Exact {
				continue
			}
			q := gks.NewQuery(pq.Terms...)
			resp, err := loaded.Search(context.Background(), gks.SearchRequest{Query: q, S: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) != pq.PaperGKS1 {
				t.Errorf("%s %s: GKS s=1 = %d, want %d",
					name, pq.ID, len(resp.Results), pq.PaperGKS1)
			}
		}
	}
}

// TestBinaryIndexThroughFacade checks the snapshot format flows through
// the public API: save via the index layer, load via the facade.
func TestBinaryIndexThroughFacade(t *testing.T) {
	doc, err := gks.ParseDocumentString(`<lib>
  <book><title>systems</title><author>Ann</author><author>Bob</author></book>
  <book><title>queries</title><author>Ann</author><author>Cid</author></book>
</lib>`, "lib.xml")
	if err != nil {
		t.Fatal(err)
	}
	var repo xmltree.Repository
	repo.Add(doc)
	ix, err := index.Build(&repo, index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sys, err := gks.LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sys.Search(context.Background(), gks.SearchRequest{Query: gks.ParseQuery("ann bob"), S: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Label != "book" {
		t.Fatalf("binary-format search = %+v", resp.Results)
	}
}

// TestConcurrentFacadeSearches validates the immutable-index concurrency
// contract at the public surface (run with -race).
func TestConcurrentFacadeSearches(t *testing.T) {
	sys, err := gks.IndexDocuments(datagen.PaperSigmod(1))
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`"Anthony I. Wasserman" "Lawrence A. Rowe"`,
		`"Randy H. Katz"`,
		`"David A. Patterson" "Garth A. Gibson" "Randy H. Katz"`,
	}
	done := make(chan error, 24)
	for i := 0; i < 24; i++ {
		go func(i int) {
			resp, err := sys.Search(context.Background(), gks.SearchRequest{Query: gks.ParseQuery(queries[i%len(queries)]), S: 1})
			if err == nil && len(resp.Results) == 0 {
				err = os.ErrNotExist
			}
			if err == nil {
				sys.Insights(resp, 3)
			}
			done <- err
		}(i)
	}
	for i := 0; i < 24; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
