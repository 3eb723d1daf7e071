package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// ErrCorrupt reports that a persisted index could not be decoded because its
// bytes are damaged (bit flips, truncation, a partial write) or are not an
// index snapshot at all. Callers that manage snapshot lifecycles — the gksd
// reload path, startup validation — match it with errors.Is to distinguish
// "the file is bad" from environmental failures such as os.ErrNotExist.
var ErrCorrupt = errors.New("corrupt index snapshot")

// corruptf builds an ErrCorrupt-wrapped error with detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Snapshot format ("GKS3", version 3): a durability envelope around the
// compact binary codec (GKSI, binary.go). The GKSI payload is framed by a
// self-describing header and sealed with a trailing checksum so that
// truncation and bit flips are detected up front — the loader never decodes
// damaged bytes into a serving index.
//
// Layout:
//
//	magic "GKS3"                          4 bytes
//	headerLen                             uvarint
//	header (headerLen bytes):
//	    envelope version (= 3)            uvarint
//	    payloadLen                        uvarint
//	payload (payloadLen bytes):           a complete GKSI image
//	crc32                                 4 bytes little-endian,
//	                                      IEEE over header ++ payload
const snapshotMagic = "GKS3"

const snapshotVersion = 3

// maxSnapshotHeader bounds the length-framed header; the header holds a few
// varints, so anything larger proves corruption.
const maxSnapshotHeader = 1 << 10

// SaveSnapshot writes the index in the checksummed snapshot format (v3).
// This is the durable on-disk format used by SaveFile; SaveBinary remains
// available for raw GKSI streams.
func (ix *Index) SaveSnapshot(w io.Writer) error {
	var payload bytes.Buffer
	if err := ix.SaveBinary(&payload); err != nil {
		return err
	}
	return sealSnapshot(w, payload.Bytes())
}

// sealSnapshot writes payload, a complete GKSI image, in the GKS3
// envelope.
func sealSnapshot(w io.Writer, payload []byte) error {
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, snapshotVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))

	crc := crc32.NewIEEE()
	crc.Write(hdr)
	crc.Write(payload)

	var frame []byte
	frame = append(frame, snapshotMagic...)
	frame = binary.AppendUvarint(frame, uint64(len(hdr)))
	frame = append(frame, hdr...)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("index: save snapshot: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("index: save snapshot: %w", err)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("index: save snapshot: %w", err)
	}
	return nil
}

// loadSnapshotAfterMagic decodes a v3 snapshot whose magic bytes have
// already been consumed. The whole payload is read and checksummed before
// any decoding, so a damaged snapshot fails with ErrCorrupt instead of
// being decoded into garbage; io.ReadAll grows with the bytes actually
// present, so a corrupt payloadLen cannot force a giant upfront allocation.
func loadSnapshotAfterMagic(br *bufio.Reader) (*Index, error) {
	hdrLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, corruptf("snapshot header length: %v", err)
	}
	if hdrLen == 0 || hdrLen > maxSnapshotHeader {
		return nil, corruptf("implausible snapshot header length %d", hdrLen)
	}
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, corruptf("snapshot header: %v", err)
	}
	hr := bytes.NewReader(hdr)
	version, err := binary.ReadUvarint(hr)
	if err != nil {
		return nil, corruptf("snapshot version: %v", err)
	}
	if version != snapshotVersion {
		return nil, corruptf("unsupported snapshot version %d", version)
	}
	payloadLen, err := binary.ReadUvarint(hr)
	if err != nil {
		return nil, corruptf("snapshot payload length: %v", err)
	}
	if payloadLen > 1<<62 {
		return nil, corruptf("implausible snapshot payload length %d", payloadLen)
	}
	// A short read here is truncation inside the length-framed payload —
	// corruption, not an environmental I/O failure, so it carries the same
	// typed ErrCorrupt as every other framing violation (reload paths
	// dispatch on it).
	payload, err := io.ReadAll(io.LimitReader(br, int64(payloadLen)))
	if err != nil {
		return nil, corruptf("read snapshot payload: %v", err)
	}
	if uint64(len(payload)) != payloadLen {
		return nil, corruptf("truncated snapshot payload: %d of %d bytes", len(payload), payloadLen)
	}
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, corruptf("snapshot checksum: %v", err)
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr)
	crc.Write(payload)
	if got, want := binary.LittleEndian.Uint32(tail[:]), crc.Sum32(); got != want {
		return nil, corruptf("snapshot checksum mismatch: stored %08x, computed %08x", got, want)
	}
	// The payload is a verified, complete GKSI image; decode it with its
	// exact size as the allocation bound.
	return loadSized(bytes.NewReader(payload), int64(len(payload)))
}

// testInterceptWriter, when non-nil, wraps the temp-file writer inside
// SaveFile — the fail-after-N-bytes hook the crash-mid-write regression
// test uses to prove a failed save never destroys the previous snapshot.
var testInterceptWriter func(io.Writer) io.Writer

// WriteFileAtomic writes via a temp file in path's directory, fsyncs, and
// renames over path, so the destination always holds either the previous
// complete file or the new complete file — never a truncated mix. The
// directory is fsynced after the rename so the new name itself is durable.
// Exported so sibling persistence formats (the shard-set manifest) share
// the same crash-safety discipline.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	var w io.Writer = tmp
	if testInterceptWriter != nil {
		w = testInterceptWriter(tmp)
	}
	if err = write(w); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("index: save: sync %s: %w", tmpName, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("index: save: close %s: %w", tmpName, err)
	}
	if err = os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("index: save: %w", err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Best-effort: some filesystems refuse directory fsync, which only weakens
// durability of the rename, not atomicity.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
