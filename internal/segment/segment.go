// Package segment implements the GKS4 segment format: the lazily-loaded,
// bounded-memory on-disk representation of a GKS index (ROADMAP item 3, in
// the spirit of sorted-string tables).
//
// A GKS3 snapshot decodes the entire index — node table AND every posting
// list — into RAM at boot, so boot latency and resident memory scale
// linearly with corpus size. A GKS4 segment splits the index into an
// eagerly-decoded meta section (labels, document names, the packed
// pre-order node table the search engine reads directly) and posting
// blocks that stay on disk until a query asks for a term. Opening a
// segment reads the footer, the raw meta section and the values section;
// posting blocks are fetched by pread on demand, CRC-checked and held in a
// byte-capacity LRU cache shared across queries (and, optionally, across
// reload generations).
//
// Compression follows what is read, not what is large. The posting blocks
// are read by every query, so version 2 stores them raw: a cache miss is
// one pread plus one CRC, and the cache holds the file's bytes. The value
// arena is read only at open (into the resident node table) and then by
// DI, snippets and XPath, so it is the part that is flate-compressed.
// Version 1, still read, did the opposite: flate posting blocks and the
// arena raw inside the meta section.
//
// Layout of version 2 (all integers unsigned varints unless noted):
//
//	magic "GKS4"                      4 bytes
//	version (= 2)                     uvarint
//	meta section                      raw, CRC-protected: uvarint 0,
//	                                  packed-meta version 2, labels,
//	                                  document names and the DAG-compressed
//	                                  node table of index.EncodeMeta —
//	                                  spine / instance / shape arrays and
//	                                  the value lengths, but not the value
//	                                  arena's bytes
//	values section                    the value arena, flate (BestSpeed),
//	                                  CRC-protected
//	posting blocks                    concatenated, each raw: the
//	                                  delta-varint posting lists of whole
//	                                  terms, packed back to back
//	footer:
//	    version (= 2)                 uvarint, must equal the header's
//	    stats                         10 uvarints (field order of GKSI)
//	    metaOff metaLen metaCRC       uvarints (CRC32-IEEE of meta bytes)
//	    valuesLen valuesULen valuesCRC
//	                                  uvarints (stored and inflated length,
//	                                  CRC over the stored bytes; the section
//	                                  starts where meta ends)
//	    blockCount                    uvarint, then per block:
//	        len crc                   uvarints (offsets derive from the
//	                                  values section's end and the running
//	                                  length sum)
//	    termCount                     uvarint, then per term, sorted:
//	        sharedPrefixLen           uvarint (with the previous term)
//	        suffixLen suffixBytes     prefix-compressed term key
//	        blockDelta                uvarint (block index, delta-coded;
//	                                  term indices are non-decreasing)
//	        offsetInBlock count       uvarints (byte offset of the term's
//	                                  list in its block, and its posting
//	                                  count)
//	trailer:
//	    footerLen                     4 bytes little-endian
//	    footerCRC                     4 bytes little-endian: CRC32-IEEE over
//	                                  the header (magic and version varint)
//	                                  followed by the footer
//	    trailer magic "4SKG"          4 bytes
//
// Version 1 differs in four places: there is no values section (the meta
// section is packed-meta version 1, arena inline, or the flat per-node
// records of writers older than the packed table, which the reader seals
// into columns on open); each posting block is a flate stream whose footer entry is
// cLen uLen crc, with offsetInBlock counted in the inflated block; the
// footer has no version field; and footerCRC covers the footer alone.
// Because the two footer checksums cover different bytes, a header whose
// version byte was rewritten fails the checksum instead of reading one
// version's blocks as the other's.
//
// Every term's list lives wholly inside one block; the writer packs terms
// into ~DefaultBlockSize bytes per block and lets a single oversized list
// overflow its own block rather than splitting it. The footer is the only
// structure trusted before its CRC passes, and every decoded posting list
// is re-validated (strictly increasing, within the node table) at fetch
// time, so a damaged block surfaces as index.ErrCorrupt — never a panic or
// a silently wrong result.
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
	// formatVersion is the GKS4 format version written. The reader also
	// accepts version 1.
	formatVersion = 2
	// trailerSize is footerLen(4) + footerCRC(4) + trailerMagic(4).
	trailerSize = 12
)

// DefaultBlockSize is the target size of one posting block: the unit of a
// pread, a CRC and a cache entry. Half of all terms hold one posting, so a
// block carries hundreds of terms.
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
	// SetBlockCacheBytes reports the posting-block bytes resident in the
	// cache after an insert or eviction.
	SetBlockCacheBytes(n int64)
	// ObserveBlockFetch records the latency of one disk block fetch
	// (pread + CRC, plus inflate on a version-1 file), cache misses only.
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
