package index

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// Load reads an index written by SaveSnapshot: the checksummed GKS3
// envelope around a GKSI version-3 image. The checksum is verified before
// anything is decoded, and the decoded node table must pass the full
// validation, so damaged input fails with an ErrCorrupt-wrapped error.
// This build reads exactly what it writes: the older generations — gob
// images, GKSI version 2, and a bare GKSI image outside the envelope —
// fail as unsupported, also with ErrCorrupt, and must be re-indexed from
// their XML.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	var magic [len(snapshotMagic)]byte
	if n, err := io.ReadFull(br, magic[:]); err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, corruptf("load: %d-byte input is no snapshot", n)
	} else if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	switch string(magic[:]) {
	case snapshotMagic:
		return loadSnapshotAfterMagic(br)
	case binaryMagic:
		return nil, corruptf("unsupported format: a bare GKSI image outside the GKS3 envelope")
	}
	return nil, corruptf("unsupported format: magic %q is not GKS3", magic)
}

// SaveFile writes the index to path in the checksummed snapshot format
// (v3), atomically: the bytes go to a temp file in the same directory which
// is fsynced and renamed over path, so a crash, full disk, or failed write
// mid-save never destroys a previous snapshot at path.
func (ix *Index) SaveFile(path string) error {
	return WriteFileAtomic(path, ix.SaveSnapshot)
}

// LoadFile reads the GKS3 snapshot at path (see Load). Decode failures are
// wrapped with ErrCorrupt and the file name, so startup and reload paths
// surface "which snapshot is bad" rather than a raw varint error.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	defer f.Close()
	ix, err := Load(f)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			return nil, fmt.Errorf("index: snapshot %s: %w", path, err)
		}
		return nil, fmt.Errorf("index: snapshot %s: %w (%v)", path, ErrCorrupt, err)
	}
	return ix, nil
}

// SizeBytes returns the size of the serialized index — the "Index Size"
// column of Table 4 — as written by SaveSnapshot, the v3 checksummed
// format everything actually ships. The snapshot writer streams lazy
// postings straight from their source and encodes the node table from its
// columns, so this never materializes the postings.
func (ix *Index) SizeBytes() (int64, error) {
	var cw countWriter
	if err := ix.SaveSnapshot(&cw); err != nil {
		return 0, err
	}
	return cw.n, nil
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
