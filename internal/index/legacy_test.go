package index

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"repro/internal/xmltree"
)

// legacyImages are ix in each image generation this build no longer reads,
// in a fixed order: a gob stream (the v1 format), GKSI version 2 (flat
// node records) in the GKS3 envelope, a bare GKSI version-3 image outside
// the envelope, and GKS3 envelopes whose payload is a gob stream or
// another GKS3 snapshot.
func legacyImages(tb testing.TB, ix *Index) []namedImage {
	tb.Helper()
	var gobV1 bytes.Buffer
	v1 := struct {
		Version  int
		Labels   []string
		Nodes    []NodeInfo
		Postings map[string][]int32
		DocNames []string
		Stats    Stats
	}{1, ix.Labels, rows(ix), ix.Postings, ix.DocNames, ix.Stats}
	if err := gob.NewEncoder(&gobV1).Encode(&v1); err != nil {
		tb.Fatal(err)
	}
	var bare, snap bytes.Buffer
	if err := ix.saveBinary(&bare); err != nil {
		tb.Fatal(err)
	}
	if err := ix.SaveSnapshot(&snap); err != nil {
		tb.Fatal(err)
	}
	v2 := bytes.Clone(bare.Bytes())
	v2[len(binaryMagic)] = 2
	sealed := func(payload []byte) []byte {
		var buf bytes.Buffer
		if err := sealSnapshot(&buf, payload); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	return []namedImage{
		{"gob stream", gobV1.Bytes()},
		{"GKSI version 2 in GKS3", sealed(v2)},
		{"bare GKSI version 3", bare.Bytes()},
		{"GKS3 wrapping gob", sealed(gobV1.Bytes())},
		{"GKS3 wrapping GKS3", sealed(snap.Bytes())},
	}
}

type namedImage struct {
	name string
	img  []byte
}

// TestLegacyImagesRejected: every image generation this build does not
// write fails to load with ErrCorrupt — the documented break; such an
// index must be re-indexed from its XML — and never panics.
func TestLegacyImagesRejected(t *testing.T) {
	ix, err := BuildDocument(xmltree.BuildFigure2a(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range legacyImages(t, ix) {
		got, err := Load(bytes.NewReader(c.img))
		if !errors.Is(err, ErrCorrupt) || got != nil {
			t.Errorf("%s: Load = %v, %v; want ErrCorrupt", c.name, got, err)
		}
	}
}
