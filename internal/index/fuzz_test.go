package index

import (
	"bytes"
	"testing"

	"repro/internal/xmltree"
)

// FuzzLoad drives the auto-detecting loader with mutated images of all
// three snapshot formats (gob v1, binary v2, checksummed v3) plus
// adversarial stubs. The contract under fuzzing: Load returns an index or
// an error — it never panics, and the bounded pre-allocation means a
// corrupt header cannot demand an unbounded slice (the harness would OOM).
// An input that happens to decode must also survive Validate and a
// re-save round trip without crashing.
func FuzzLoad(f *testing.F) {
	ix, err := BuildDocument(xmltree.BuildFigure2a(), DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	var bin, snap, binP, snapP bytes.Buffer
	gob := bytes.NewBuffer(gobV1Image(f, ix))
	if err := ix.SaveBinary(&bin); err != nil {
		f.Fatal(err)
	}
	if err := ix.SaveSnapshot(&snap); err != nil {
		f.Fatal(err)
	}
	// Packed-codec seeds: the same index in the DAG-compressed node-table
	// encoding (GKSI v3 and its snapshot envelope).
	packed := ix.Pack()
	if err := packed.SaveBinary(&binP); err != nil {
		f.Fatal(err)
	}
	if err := packed.SaveSnapshot(&snapP); err != nil {
		f.Fatal(err)
	}
	f.Add(gob.Bytes())
	f.Add(bin.Bytes())
	f.Add(snap.Bytes())
	f.Add(binP.Bytes())
	f.Add(snapP.Bytes())
	f.Add([]byte{})
	f.Add([]byte(binaryMagic))
	f.Add([]byte(snapshotMagic))
	// Truncations and flips of each format seed the interesting paths.
	for _, img := range [][]byte{gob.Bytes(), bin.Bytes(), snap.Bytes(), binP.Bytes(), snapP.Bytes()} {
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
