package segment

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/index"
	"repro/internal/postings"
)

// WriterOptions tunes segment construction.
type WriterOptions struct {
	// BlockSize is the target bytes per posting block; non-positive means
	// DefaultBlockSize. A single list larger than the target gets a block
	// of its own rather than being split.
	BlockSize int
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.BlockSize <= 0 {
		o.BlockSize = DefaultBlockSize
	}
	return o
}

// WriteFile writes ix to path as a GKS4 segment with default options,
// atomically (temp file + fsync + rename, like index.SaveFile).
func WriteFile(path string, ix *index.Index) error {
	return WriteFileOpts(path, ix, WriterOptions{})
}

// WriteFileOpts is WriteFile with explicit options.
func WriteFileOpts(path string, ix *index.Index, opts WriterOptions) error {
	return index.WriteFileAtomic(path, func(w io.Writer) error {
		return Write(w, ix, opts)
	})
}

// Write serializes ix as a version-2 GKS4 segment. The source may be eager
// (GKS3 in memory) or itself lazily backed by another segment — posting
// lists are streamed through ForEachKeywordSorted either way, so
// converting never needs the whole posting set resident at once (blocks
// are buffered until the final layout is known, but each raw list is
// transient).
func Write(w io.Writer, ix *index.Index, opts WriterOptions) error {
	opts = opts.withDefaults()
	ix = ix.Compacted()

	// Meta section: labels, document names, the DAG-encoded node table, stored
	// raw (CRC-protected) because open decodes it every time. The value
	// arena, which only DI, snippets and XPath read, leaves it for a
	// compressed section of its own.
	var metaBuf bytes.Buffer
	arena, err := index.EncodeMeta(&metaBuf, ix)
	if err != nil {
		return fmt.Errorf("segment: encode meta: %w", err)
	}
	meta := metaBuf.Bytes()
	values, err := deflate(arena)
	if err != nil {
		return fmt.Errorf("segment: compress values: %w", err)
	}

	// Pack whole terms into blocks of ~BlockSize bytes, stored raw.
	var (
		foot    = footerData{version: formatVersion, stats: ix.Stats}
		blocks  [][]byte
		cur     []byte
		scratch []byte
	)
	flushBlock := func() {
		if len(cur) > 0 {
			blocks = append(blocks, cur)
			cur = nil
		}
	}
	err = ix.ForEachKeywordSorted(func(kw string, list []int32) error {
		scratch = postings.Encode(scratch[:0], list)
		if len(cur) > 0 && len(cur)+len(scratch) > opts.BlockSize {
			flushBlock()
		}
		foot.terms = append(foot.terms, termEntry{term: kw, block: int32(len(blocks)), off: int32(len(cur)), count: int32(len(list))})
		cur = append(cur, scratch...)
		return nil
	})
	if err != nil {
		return err
	}
	flushBlock()

	// Section frames. Offsets are derived on read (header end, then each
	// section's stored length), so the footer stores lengths only.
	hdr := binary.AppendUvarint([]byte(magic), formatVersion)
	foot.meta = frame(int64(len(hdr)), meta)
	foot.values = frame(foot.meta.off+foot.meta.cLen, values)
	foot.values.uLen = int64(len(arena))
	off := foot.values.off + foot.values.cLen
	for _, b := range blocks {
		bm := frame(off, b)
		foot.blocks = append(foot.blocks, bm)
		off += bm.cLen
	}
	f := foot.encode()

	bw := bufio.NewWriter(w)
	bw.Write(hdr)
	bw.Write(meta)
	bw.Write(values)
	for _, b := range blocks {
		bw.Write(b)
	}
	bw.Write(f)
	var tail [trailerSize]byte
	binary.LittleEndian.PutUint32(tail[0:4], uint32(len(f)))
	binary.LittleEndian.PutUint32(tail[4:8], footerCRC(hdr, f))
	copy(tail[8:12], trailerMagic)
	bw.Write(tail[:])
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("segment: write: %w", err)
	}
	return nil
}

// frame describes data stored at off as it sits in the file.
func frame(off int64, data []byte) blockMeta {
	return blockMeta{off: off, cLen: int64(len(data)), uLen: int64(len(data)), crc: crc32.ChecksumIEEE(data)}
}

// encode serializes a version-2 footer (the layout in the package doc).
func (foot *footerData) encode() []byte {
	var f []byte
	put := func(v int64) { f = binary.AppendUvarint(f, uint64(v)) }
	put(int64(foot.version))
	for _, v := range foot.stats.Fields() {
		put(int64(v))
	}
	put(foot.meta.off)
	put(foot.meta.cLen)
	put(int64(foot.meta.crc))
	put(foot.values.cLen)
	put(foot.values.uLen)
	put(int64(foot.values.crc))
	put(int64(len(foot.blocks)))
	for _, b := range foot.blocks {
		put(b.cLen)
		put(int64(b.crc))
	}
	put(int64(len(foot.terms)))
	prev, prevBlock := "", int32(0)
	for _, t := range foot.terms {
		shared := sharedPrefix(prev, t.term)
		put(int64(shared))
		put(int64(len(t.term) - shared))
		f = append(f, t.term[shared:]...)
		put(int64(t.block - prevBlock))
		put(int64(t.off))
		put(int64(t.count))
		prev, prevBlock = t.term, t.block
	}
	return f
}

// footerCRC is the trailer's checksum of a version-2 footer. It covers
// the header (magic and version varint) as well as the footer bytes, so a
// rewritten version byte fails the checksum whichever way it was changed.
func footerCRC(hdr, footer []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, footer)
}

// deflate compresses data with flate.BestSpeed.
func deflate(data []byte) ([]byte, error) {
	var b bytes.Buffer
	fw, err := flate.NewWriter(&b, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := fw.Write(data); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// sharedPrefix returns the length of the longest common prefix of a and b.
func sharedPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}
