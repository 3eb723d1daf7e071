package index

import (
	"bytes"
	"testing"

	"repro/internal/xmltree"
)

// FuzzLoad drives the auto-detecting loader with mutated images of every
// format it reads — gob v1, GKSI and the checksummed GKS3 envelope, each
// with the flat node table older builds wrote and (GKSI, GKS3) with the
// packed one written today — plus adversarial stubs. The contract under fuzzing: Load returns an index or
// an error — it never panics, and the bounded pre-allocation means a
// corrupt header cannot demand an unbounded slice (the harness would OOM).
// An input that happens to decode must also survive Validate and a
// re-save round trip without crashing.
func FuzzLoad(f *testing.F) {
	ix, err := BuildDocument(xmltree.BuildFigure2a(), DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	var binP, snapP bytes.Buffer
	if err := ix.SaveBinary(&binP); err != nil {
		f.Fatal(err)
	}
	if err := ix.SaveSnapshot(&snapP); err != nil {
		f.Fatal(err)
	}
	images := [][]byte{gobV1Image(f, ix), flatGKSI(f, ix), flatGKS3(f, ix), binP.Bytes(), snapP.Bytes()}
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
	// Truncations and flips of each format seed the interesting paths.
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
