// Package segment implements the GKS4 block-compressed segment format:
// the lazily-loaded, bounded-memory on-disk representation of a GKS index
// (ROADMAP item 3, in the spirit of sorted-string tables).
//
// A GKS3 snapshot decodes the entire index — node table AND every posting
// list — into RAM at boot, so boot latency and resident memory scale
// linearly with corpus size. A GKS4 segment splits the index into an
// eagerly-decoded meta section (labels, document names, the packed
// pre-order node table the search engine reads directly) and posting blocks that stay on
// disk until a query asks for a term. Opening a segment reads only the
// footer and the raw meta section; posting blocks are fetched by pread on
// demand, verified, decompressed, and held in a byte-capacity LRU cache
// shared across queries (and, optionally, across reload generations).
// The meta section is stored uncompressed on purpose: it is decoded at
// every open, and inflating it would put flate on the boot path — the
// posting blocks, which boot never touches, carry the compression.
//
// Layout (all integers unsigned varints unless noted):
//
//	magic "GKS4"                      4 bytes
//	version (= 1)                     uvarint
//	meta section                      raw (uncompressed), CRC-protected:
//	    uvarint 0, packed-meta version, labels, document names and the
//	    DAG-compressed node table of index.EncodeMeta — spine / instance /
//	    shape / value-arena arrays; shared subtrees stored once. Segments
//	    written before the packed table was the only one start with the
//	    label count instead and store the flat per-node records; the reader
//	    packs those on open.
//	posting blocks                    concatenated, each flate-compressed;
//	                                  decompressed form: the delta-varint
//	                                  posting lists of whole terms, packed
//	                                  back to back
//	footer:
//	    stats                         10 uvarints (field order of GKSI)
//	    metaOff metaLen               uvarints
//	    metaCRC                       uvarint (CRC32-IEEE of meta bytes)
//	    blockCount                    uvarint, then per block:
//	        cLen uLen crc             uvarints (CRC over compressed bytes;
//	                                  offsets derive from metaOff+metaLen
//	                                  and the running cLen sum)
//	    termCount                     uvarint, then per term, sorted:
//	        sharedPrefixLen           uvarint (with the previous term)
//	        suffixLen suffixBytes     prefix-compressed term key
//	        blockDelta                uvarint (block index, delta-coded;
//	                                  term indices are non-decreasing)
//	        offsetInBlock count       uvarints (byte offset of the term's
//	                                  list in the decompressed block, and
//	                                  its posting count)
//	trailer:
//	    footerLen                     4 bytes little-endian
//	    footerCRC                     4 bytes little-endian (CRC32-IEEE)
//	    trailer magic "4SKG"          4 bytes
//
// Every term's list lives wholly inside one block; the writer packs terms
// into ~DefaultBlockSize uncompressed bytes per block and lets a single
// oversized list overflow its own block rather than splitting it. The
// footer is the only structure trusted before its CRC passes, and every
// decoded posting list is re-validated (strictly increasing, within the
// node table) at fetch time, so a damaged block surfaces as
// index.ErrCorrupt — never a panic or a silently wrong result.
//
// GKS3 snapshots remain fully supported for migration; `gks index
// -format=gks4` and `gks convert` produce segments, and index.Load paths
// are untouched (dispatch happens one level up, in the root package).
package segment

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/index"
)

const (
	// magic heads every segment file.
	magic = "GKS4"
	// trailerMagic ends every segment file; the reader locates the footer
	// from the file tail, so the trailer has its own magic.
	trailerMagic = "4SKG"
	// formatVersion is the GKS4 format version written and accepted.
	formatVersion = 1
	// trailerSize is footerLen(4) + footerCRC(4) + trailerMagic(4).
	trailerSize = 12
)

// DefaultBlockSize is the target uncompressed size of one posting block.
// Small enough that a point lookup decompresses little, large enough that
// flate has context to squeeze delta varints.
const DefaultBlockSize = 32 << 10

// DefaultCacheBytes is the block-cache capacity used when the caller does
// not supply a cache of its own.
const DefaultCacheBytes = 64 << 20

// ErrCorrupt aliases index.ErrCorrupt: a damaged segment fails with the
// same typed error as a damaged GKS3 snapshot, so reload/startup paths
// match one error for "the file is bad" regardless of format.
var ErrCorrupt = index.ErrCorrupt

// corruptf builds an ErrCorrupt-wrapped error with detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Metrics is the observability surface of the block-serving path. All
// methods must be safe for concurrent use; obs.Registry implements it.
type Metrics interface {
	// BlockCacheHit counts a posting-block fetch served from the cache.
	BlockCacheHit()
	// BlockCacheMiss counts a posting-block fetch that went to disk.
	BlockCacheMiss()
	// BlockCacheEvict counts a block evicted to respect the byte capacity.
	BlockCacheEvict()
	// SetBlockCacheBytes reports the decompressed bytes resident in the
	// cache after an insert or eviction.
	SetBlockCacheBytes(n int64)
	// ObserveBlockFetch records the latency of one disk block fetch
	// (pread + CRC + decompress), cache misses only.
	ObserveBlockFetch(d time.Duration)
}

// nopMetrics is the nil-safe default sink.
type nopMetrics struct{}

func (nopMetrics) BlockCacheHit()                  {}
func (nopMetrics) BlockCacheMiss()                 {}
func (nopMetrics) BlockCacheEvict()                {}
func (nopMetrics) SetBlockCacheBytes(int64)        {}
func (nopMetrics) ObserveBlockFetch(time.Duration) {}

// IsSegmentFile sniffs path's magic bytes. It reports false on any read
// error — callers fall through to the GKS3/GKSI/gob loaders, which produce
// the proper error for a missing or unreadable file.
func IsSegmentFile(path string) bool {
	f, err := openFile(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var m [4]byte
	if _, err := f.ReadAt(m[:], 0); err != nil {
		return false
	}
	return string(m[:]) == magic
}

// errIsCorrupt reports whether err is already typed corruption.
func errIsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }
