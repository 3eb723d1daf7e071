package gks_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	gks "repro"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/wal"
)

// BenchmarkReplayWAL times boot recovery: a write-ahead-log tail of 64 or
// 1 024 writer mutations (70 % add, 20 % replace, 10 % delete of about
// 20 KB documents) replayed by gks.ReplayWAL onto a freshly loaded GKS3
// snapshot of ingest_mixed's corpus — the DBLP and SIGMOD analogs at
// scale 10 (GKS_BENCH_SCALE overrides) — holding 128 written documents,
// about what that workload's writer leaves behind by its last
// checkpoint. Each run reloads the snapshot untimed, so every replay
// starts from a base that owns its delta-append lineage, as a boot does;
// the timed part parses the logged documents and applies them. Besides
// ns/op it reports ms/op and the full node-table packs per replay.
func BenchmarkReplayWAL(b *testing.B) {
	const based = 128 // written documents already in the snapshot
	scale := 10
	if s := benchScale(); s > 1 {
		scale = s
	}
	rng := rand.New(rand.NewSource(7))
	docs := []*gks.Document{datagen.PaperDBLP(scale), datagen.PaperSigmod(scale)}
	for n := 0; n < based; n++ {
		doc, err := gks.ParseDocumentString(replayDoc(rng, n, 0), replayName(n))
		if err != nil {
			b.Fatal(err)
		}
		docs = append(docs, doc)
	}
	sys, err := gks.IndexDocuments(docs...)
	if err != nil {
		b.Fatal(err)
	}
	snap := filepath.Join(b.TempDir(), "snap.gksidx")
	if err := sys.SaveIndexFile(snap); err != nil {
		b.Fatal(err)
	}

	for _, tail := range []int{64, 1024} {
		b.Run(fmt.Sprintf("tail=%d", tail), func(b *testing.B) {
			walDir := filepath.Join(b.TempDir(), "wal")
			writeReplayTail(b, walDir, rand.New(rand.NewSource(int64(tail))), based, tail)
			var packs uint64
			var replayed time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				base, err := gks.LoadIndexFile(snap)
				if err != nil {
					b.Fatal(err)
				}
				l, err := wal.Open(walDir, wal.Options{NoSync: true})
				if err != nil {
					b.Fatal(err)
				}
				before, start := index.PackCount(), time.Now()
				b.StartTimer()
				if _, _, err := gks.ReplayWAL(base, l); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				replayed += time.Since(start)
				packs += index.PackCount() - before
				if err := l.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(replayed.Milliseconds())/float64(b.N), "ms/op")
			b.ReportMetric(float64(packs)/float64(b.N), "packs/op")
		})
	}
}

// writeReplayTail logs k writer mutations over the written documents
// 0..based-1 into a fresh log at dir: 70 % add a new document, 20 %
// replace a live one with a new version, 10 % delete a live one.
func writeReplayTail(b *testing.B, dir string, rng *rand.Rand, based, k int) {
	b.Helper()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	live := make([]int, based)
	for n := range live {
		live[n] = n
	}
	next := based
	for i := 0; i < k; i++ {
		switch r := rng.Intn(10); {
		case r < 7 || len(live) == 0:
			_, err = l.Enqueue(wal.OpUpsert, replayName(next), replayDoc(rng, next, 0))
			live = append(live, next)
			next++
		case r < 9:
			n := live[rng.Intn(len(live))]
			_, err = l.Enqueue(wal.OpUpsert, replayName(n), replayDoc(rng, n, i+1))
		default:
			j := rng.Intn(len(live))
			_, err = l.Enqueue(wal.OpDelete, replayName(live[j]), "")
			live = append(live[:j], live[j+1:]...)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
}

func replayName(n int) string { return fmt.Sprintf("ingest-%05d.xml", n) }

// replayDoc is version v of the n-th written document: about 20 KB of
// records whose labels and tokens start with "zq", plus one token unique
// to (n, v), the shape the ingest_mixed writer sends.
func replayDoc(rng *rand.Rand, n, v int) string {
	word := func() string {
		k := rng.Intn(5000)
		return "zq" + string(rune('a'+k%26)) + string(rune('a'+k/26%26)) + string(rune('a'+k/676%26))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<zqdoc><zqrec><zqfield>%s</zqfield><zqkey>zqv%dx%d</zqkey></zqrec>", word(), n, v)
	for b.Len() < 20<<10 {
		b.WriteString("<zqrec>")
		for f := 0; f < 2+rng.Intn(3); f++ {
			b.WriteString("<zqfield>" + word() + " " + word() + " " + word() + "</zqfield>")
		}
		b.WriteString("<zqkey>" + word() + "</zqkey></zqrec>")
	}
	b.WriteString("</zqdoc>")
	return b.String()
}
