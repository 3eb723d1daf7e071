package index

import (
	"bytes"
	"testing"

	"repro/internal/xmltree"
)

// FuzzLoad drives the loader with mutated images: the GKS3 snapshot it
// reads, every legacy generation it rejects (legacyImages: gob, GKSI
// version 2, bare GKSI, GKS3 around gob or GKS3), plus adversarial stubs.
// The contract under fuzzing: Load returns an index or an error — it never
// panics, and the bounded pre-allocation means a corrupt header cannot
// demand an unbounded slice (the harness would OOM). An input that happens
// to decode must also survive Validate and a re-save round trip without
// crashing.
func FuzzLoad(f *testing.F) {
	ix, err := BuildDocument(xmltree.BuildFigure2a(), DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if err := ix.SaveSnapshot(&snap); err != nil {
		f.Fatal(err)
	}
	images := [][]byte{snap.Bytes()}
	for _, c := range legacyImages(f, ix) {
		images = append(images, c.img)
	}
	for _, img := range images {
		f.Add(img)
	}
	f.Add([]byte{})
	f.Add([]byte(binaryMagic))
	f.Add([]byte(snapshotMagic))
	// Node encodings that break what expansion indexes by.
	for _, img := range damagedNodeImages(f, ix) {
		f.Add(img)
	}
	// Truncations and flips of each image seed the interesting paths.
	for _, img := range images {
		f.Add(img[:len(img)/2])
		f.Add(img[:min(len(img), 10)])
		flipped := bytes.Clone(img)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			if got != nil {
				t.Fatalf("Load returned both an index and an error: %v", err)
			}
			return
		}
		if got == nil {
			t.Fatal("Load returned nil index without error")
		}
		// A structurally valid decode must also re-serialize cleanly.
		if got.Validate() == nil {
			var buf bytes.Buffer
			if err := got.SaveSnapshot(&buf); err != nil {
				t.Fatalf("re-save of loaded index failed: %v", err)
			}
		}
	})
}
