package index

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
)

// persisted is the gob wire format of an Index (v1, legacy). It is
// import-only: nothing writes it anymore, Load still reads files that
// older builds left behind.
type persisted struct {
	Version  int
	Labels   []string
	Nodes    []NodeInfo
	Postings map[string][]int32
	DocNames []string
	Stats    Stats
}

const formatVersion = 1

// Load reads an index in the legacy gob format (v1, no longer written),
// or one written by SaveBinary (compact binary, format v2) or SaveSnapshot
// (checksummed envelope, format v3); the format is auto-detected from the
// leading bytes. Damaged input fails with an ErrCorrupt-wrapped error;
// v1/v2 streams detect damage on decode, while v3 verifies a CRC32 before
// decoding.
func Load(r io.Reader) (*Index, error) {
	return loadSized(r, -1)
}

// loadSized is Load with a bound on the bytes plausibly available in r
// (size < 0 means unknown). The decoder uses the bound to cap
// pre-allocations, so a corrupt header claiming billions of nodes cannot
// demand a giant allocation from a tiny file.
func loadSized(r io.Reader, size int64) (*Index, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(len(snapshotMagic)); err == nil && string(magic) == snapshotMagic {
		if _, err := br.Discard(len(snapshotMagic)); err != nil {
			return nil, fmt.Errorf("index: load: %w", err)
		}
		return loadSnapshotAfterMagic(br)
	}
	if magic, err := br.Peek(len(binaryMagic)); err == nil && string(magic) == binaryMagic {
		if _, err := br.Discard(len(binaryMagic)); err != nil {
			return nil, fmt.Errorf("index: load: %w", err)
		}
		if size >= 0 {
			size -= int64(len(binaryMagic))
		}
		return loadBinaryAfterMagic(br, size)
	}
	return loadGob(br)
}

func loadGob(r io.Reader) (ix *Index, err error) {
	// encoding/gob decodes adversarial input with errors, but a defensive
	// recover keeps Load panic-free even if a decoder edge case slips
	// through — corrupt snapshots must never crash a serving process.
	defer func() {
		if v := recover(); v != nil {
			ix, err = nil, corruptf("gob decode panicked: %v", v)
		}
	}()
	dec := gob.NewDecoder(r)
	var p persisted
	if err := dec.Decode(&p); err != nil {
		return nil, corruptf("gob load: %v", err)
	}
	if p.Version != formatVersion {
		return nil, corruptf("gob load: unsupported format version %d", p.Version)
	}
	ix = &Index{
		Labels:   p.Labels,
		Nodes:    p.Nodes,
		Postings: p.Postings,
		DocNames: p.DocNames,
		Stats:    p.Stats,
		labelIDs: make(map[string]int32, len(p.Labels)),
	}
	if ix.Postings == nil {
		ix.Postings = make(map[string][]int32)
	}
	for i, l := range ix.Labels {
		ix.labelIDs[l] = int32(i)
	}
	return ix, nil
}

// SaveFile writes the index to path in the checksummed snapshot format
// (v3), atomically: the bytes go to a temp file in the same directory which
// is fsynced and renamed over path, so a crash, full disk, or failed write
// mid-save never destroys a previous snapshot at path.
func (ix *Index) SaveFile(path string) error {
	return WriteFileAtomic(path, ix.SaveSnapshot)
}

// LoadFile reads an index from path (any format; see Load). Decode
// failures are wrapped with ErrCorrupt and the file name, so startup and
// reload paths surface "which snapshot is bad" rather than a raw
// gob/varint error.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	ix, err := loadSized(f, size)
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
// format everything actually ships. It used to measure the legacy gob v1
// encoding, which forced a Materialized()+Unpacked() flattening of the
// whole index and reported a format nothing writes anymore; the snapshot
// writer streams lazy postings straight from their source and serializes
// a packed node table without unpacking it, so this is cheap on every
// representation.
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
