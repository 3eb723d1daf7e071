package index

import (
	"bytes"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
)

func BenchmarkBuildTree(b *testing.B) {
	repo := datagen.Repo(datagen.SwissProt(datagen.Config{Seed: 42}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(repo, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildStream measures the single-pass streaming build against
// the same document serialized to XML; -benchmem shows the allocation
// saving versus parse+Build.
func BenchmarkBuildStream(b *testing.B) {
	var buf bytes.Buffer
	if err := xmltree.WriteXML(&buf, datagen.SwissProt(datagen.Config{Seed: 42})); err != nil {
		b.Fatal(err)
	}
	src := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := buildStream(bytes.NewReader(src), 0, "bench", DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse+build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			doc, err := xmltree.Parse(bytes.NewReader(src), 0, "bench")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := BuildDocument(doc, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
