package gks

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// memoBuildHashes are the SHA-256 of the GKS3 snapshots of the four corpus
// analogs (seed 1, scale 1) as built before index builds memoised
// stemming: the memo must change no byte, through either builder.
var memoBuildHashes = map[string]string{
	"tree":   "576040c8d28b8e595fb8ca4c8641951afe150277ec0570474d534daa9d3c382a",
	"stream": "370349bcd30428e06a4ca5e6c129142947f25dacf96e46ec70bee9eeeb3255a1",
}

// TestBuildersStemMemoBytes builds the four analogs with the tree builder
// and with the streaming builder and compares each GKS3 snapshot with the
// hash recorded from a build that stemmed every occurrence.
func TestBuildersStemMemoBytes(t *testing.T) {
	cfg := datagen.Config{Seed: 1, Scale: 1}
	docs := []*Document{datagen.NASA(cfg), datagen.SwissProt(cfg), datagen.PaperDBLP(1), datagen.PaperSigmod(1)}
	tree, err := IndexDocuments(docs...)
	if err != nil {
		t.Fatal(err)
	}

	// The streaming builder names documents by path: write relative
	// paths from inside the temp dir so the snapshot bytes are stable.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var paths []string
	for i, d := range docs {
		var buf bytes.Buffer
		if err := xmltree.WriteXML(&buf, d); err != nil {
			t.Fatal(err)
		}
		p := []string{"nasa.xml", "swissprot.xml", "dblp.xml", "sigmod.xml"}[i]
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	stream, err := IndexFilesStreaming(paths...)
	if err != nil {
		t.Fatal(err)
	}

	for name, sys := range map[string]*System{"tree": tree, "stream": stream} {
		var buf bytes.Buffer
		if err := sys.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != memoBuildHashes[name] {
			t.Errorf("%s build: GKS3 snapshot sha256 %s, want %s", name, got, memoBuildHashes[name])
		}
	}
}
