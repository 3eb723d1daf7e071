package segment

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/postings"
)

// Options configures a Reader.
type Options struct {
	// Cache, when non-nil, is a shared block cache (its capacity and
	// metrics were fixed at construction). When nil the reader builds a
	// private cache of CacheBytes capacity.
	Cache *BlockCache
	// CacheBytes is the private cache capacity when Cache is nil;
	// 0 means DefaultCacheBytes (negative disables caching entirely).
	CacheBytes int64
	// Metrics receives block-fetch latencies, and — when the reader builds
	// its own cache — the cache counters too. Nil is allowed.
	Metrics Metrics
}

// nextRID hands out process-unique reader ids for cache keying.
var nextRID atomic.Uint64

// blockMeta locates one stored section inside the file: a posting block,
// the meta section or the values section. cLen is the stored length and
// uLen the length after inflating; they are equal for what is stored raw
// (a version-2 posting block, the meta section).
type blockMeta struct {
	off  int64
	cLen int64
	uLen int64
	crc  uint32
}

// termEntry locates one term's posting list inside a block.
type termEntry struct {
	term  string
	block int32
	off   int32
	count int32
}

// maxBlockULen bounds a single block's claimed uncompressed size; the
// writer never produces blocks anywhere near this, so larger values prove
// a corrupt footer before any allocation.
const maxBlockULen = 1 << 31

// Reader serves a GKS4 segment: meta (labels, documents, node table) and
// the term directory are decoded eagerly at open; posting blocks are
// fetched by ReadAt on first use and held in the block cache. All methods
// are safe for concurrent use.
type Reader struct {
	f       *os.File
	path    string
	rid     uint64
	cache   *BlockCache
	metrics Metrics

	stats  index.Stats
	ix     *index.Index
	nNodes int
	blocks []blockMeta
	terms  []termEntry

	inflates  atomic.Int64 // flate streams read: the values section, at open
	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// openFile isolates the os dependency for the magic sniffer.
func openFile(path string) (*os.File, error) { return os.Open(path) }

// OpenFile opens a GKS4 version-2 segment. Only the footer, term
// directory, the raw meta section and the values section are read — no posting block is touched — so open time and resident memory
// are independent of the posting volume. Damaged files fail with
// index.ErrCorrupt naming the file.
func OpenFile(path string, opts Options) (*Reader, error) {
	f, hdrLen, foot, err := openFooter(path)
	if err != nil {
		return nil, err
	}
	r := &Reader{
		f:       f,
		path:    path,
		rid:     nextRID.Add(1),
		metrics: opts.Metrics,
		stats:   foot.stats,
		blocks:  foot.blocks,
		terms:   foot.terms,
	}
	if r.metrics == nil {
		r.metrics = nopMetrics{}
	}
	if opts.Cache != nil {
		r.cache = opts.Cache
	} else {
		capacity := opts.CacheBytes
		if capacity == 0 {
			capacity = DefaultCacheBytes
		}
		r.cache = NewBlockCache(capacity, opts.Metrics)
	}
	fail := func(err error) (*Reader, error) {
		f.Close()
		return nil, err
	}

	if foot.meta.off != int64(hdrLen) {
		return fail(corruptf("segment %s: footer meta offset %d does not match header length %d", path, foot.meta.off, hdrLen))
	}
	metaBuf, err := r.readSection("meta", foot.meta)
	if err != nil {
		return fail(err)
	}
	// The value arena is a flate section of its own, which becomes the
	// resident arena as inflated.
	vbuf, err := r.readSection("values", foot.values)
	if err != nil {
		return fail(err)
	}
	arena, err := r.inflate(vbuf, foot.values.uLen)
	if err != nil {
		return fail(corruptf("segment %s: values: %v", path, err))
	}
	meta, err := index.DecodeMeta(bytes.NewReader(metaBuf), int64(len(metaBuf)), arena)
	if err != nil {
		if errIsCorrupt(err) {
			return fail(fmt.Errorf("segment %s: %w", path, err))
		}
		return fail(corruptf("segment %s: decode meta: %v", path, err))
	}
	r.nNodes = meta.NodeCount()
	// Posting ordinals index the node table, so no list can hold more
	// entries than there are nodes; a larger directory count is corruption
	// caught before the first decode preallocates.
	for i := range r.terms {
		if int(r.terms[i].count) > r.nNodes {
			return fail(corruptf("segment %s: term %q claims %d postings with %d nodes", path, r.terms[i].term, r.terms[i].count, r.nNodes))
		}
	}
	meta.Stats = foot.stats
	r.ix = index.NewLazy(meta, r)
	// A reader dropped without Close (e.g. a failed reload generation)
	// must not leak its fd or its cache share.
	runtime.SetFinalizer(r, (*Reader).finalize)
	return r, nil
}

// readSection reads one stored section and checks its CRC.
func (r *Reader) readSection(what string, s blockMeta) ([]byte, error) {
	buf := make([]byte, s.cLen)
	if _, err := r.f.ReadAt(buf, s.off); err != nil {
		return nil, corruptf("segment %s: read %s: %v", r.path, what, err)
	}
	if crc32.ChecksumIEEE(buf) != s.crc {
		return nil, corruptf("segment %s: %s checksum mismatch", r.path, what)
	}
	return buf, nil
}

// footerData is the parsed, CRC-verified footer.
type footerData struct {
	stats  index.Stats
	meta   blockMeta
	values blockMeta
	blocks []blockMeta
	terms  []termEntry
}

// openFooter opens path and parses header, trailer and footer — shared by
// OpenFile and ReadStats. On success the caller owns the returned file.
func openFooter(path string) (*os.File, int, *footerData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("segment: %w", err)
	}
	fail := func(err error) (*os.File, int, *footerData, error) {
		f.Close()
		return nil, 0, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("segment: %w", err))
	}
	size := fi.Size()
	if size < int64(len(magic))+1+trailerSize {
		return fail(corruptf("segment %s: %d bytes is too small for a segment", path, size))
	}

	// Header: magic + version varint.
	var hdr [len(magic) + binary.MaxVarintLen64]byte
	hn, err := f.ReadAt(hdr[:min(int64(len(hdr)), size)], 0)
	if err != nil && err != io.EOF {
		return fail(corruptf("segment %s: read header: %v", path, err))
	}
	if string(hdr[:len(magic)]) != magic {
		return fail(corruptf("segment %s: bad magic %q", path, hdr[:len(magic)]))
	}
	version, vn := binary.Uvarint(hdr[len(magic):hn])
	if vn <= 0 {
		return fail(corruptf("segment %s: truncated version", path))
	}
	if version != formatVersion {
		return fail(corruptf("segment %s: unsupported version %d", path, version))
	}
	hdrLen := len(magic) + vn

	// Trailer: footerLen, footerCRC, trailing magic.
	var tail [trailerSize]byte
	if _, err := f.ReadAt(tail[:], size-trailerSize); err != nil {
		return fail(corruptf("segment %s: read trailer: %v", path, err))
	}
	if string(tail[8:12]) != trailerMagic {
		return fail(corruptf("segment %s: bad trailer magic %q", path, tail[8:12]))
	}
	footerLen := int64(binary.LittleEndian.Uint32(tail[0:4]))
	wantCRC := binary.LittleEndian.Uint32(tail[4:8])
	if footerLen == 0 || footerLen > size-trailerSize-int64(hdrLen) {
		return fail(corruptf("segment %s: implausible footer length %d in a %d-byte file", path, footerLen, size))
	}
	fbuf := make([]byte, footerLen)
	if _, err := f.ReadAt(fbuf, size-trailerSize-footerLen); err != nil {
		return fail(corruptf("segment %s: read footer: %v", path, err))
	}
	if footerCRC(hdr[:hdrLen], fbuf) != wantCRC {
		return fail(corruptf("segment %s: footer checksum mismatch", path))
	}
	foot, err := parseFooter(fbuf, size, footerLen, path)
	if err != nil {
		return fail(err)
	}
	return f, hdrLen, foot, nil
}

// parseFooter decodes and validates the CRC-verified footer bytes of a
// version-2 segment. Every count is bounded against the bytes
// that could plausibly hold it and all derived offsets are checked against
// the file size, so a corrupt footer that survived the CRC (or a
// fuzzer-built one) fails typed instead of demanding absurd allocations.
func parseFooter(fbuf []byte, size, footerLen int64, path string) (*footerData, error) {
	c := cursor{buf: fbuf}
	bad := func(format string, args ...any) (*footerData, error) {
		return nil, corruptf("segment %s: footer: %s", path, fmt.Sprintf(format, args...))
	}

	var foot footerData
	v, err := c.uvarint()
	if err != nil {
		return bad("version: %v", err)
	}
	if v != formatVersion {
		return bad("version %d, header says %d", v, formatVersion)
	}
	vals := make([]int, index.StatsFieldCount)
	for i := range vals {
		v, err := c.uvarint()
		if err != nil {
			return bad("stats: %v", err)
		}
		if v > 1<<62 {
			return bad("implausible stats value %d", v)
		}
		vals[i] = int(v)
	}
	foot.stats.SetFields(vals)

	// section reads the frame of a section stored at off: its stored
	// length, its inflated length if it is a flate stream, and its CRC.
	section := func(what string, off int64, inflated bool) (blockMeta, error) {
		cLen, err1 := c.uvarint()
		uLen, err2 := cLen, error(nil)
		if inflated {
			uLen, err2 = c.uvarint()
		}
		crc, err3 := c.uvarint()
		if err := errors.Join(err1, err2, err3); err != nil {
			return blockMeta{}, fmt.Errorf("%s: %v", what, err)
		}
		if cLen > uint64(size-off) || (inflated && uLen > maxBlockULen) || crc > 1<<32-1 {
			return blockMeta{}, fmt.Errorf("%s: implausible frame (length %d, inflated %d) at %d of a %d-byte file", what, cLen, uLen, off, size)
		}
		return blockMeta{off: off, cLen: int64(cLen), uLen: int64(uLen), crc: uint32(crc)}, nil
	}

	metaOff, err := c.uvarint()
	if err != nil {
		return bad("meta offset: %v", err)
	}
	if metaOff > uint64(size) {
		return bad("meta offset %d past the %d-byte file", metaOff, size)
	}
	if foot.meta, err = section("meta", int64(metaOff), false); err != nil {
		return bad("%v", err)
	}
	off := foot.meta.off + foot.meta.cLen
	if foot.values, err = section("values", off, true); err != nil {
		return bad("%v", err)
	}
	off += foot.values.cLen

	nBlocks, err := c.uvarint()
	if err != nil {
		return bad("block count: %v", err)
	}
	// Each block entry is at least 2 varint bytes.
	if nBlocks > uint64(c.remaining())/2 {
		return bad("block count %d exceeds what %d footer bytes can hold", nBlocks, c.remaining())
	}
	foot.blocks = make([]blockMeta, nBlocks)
	for i := range foot.blocks {
		bm, err := section(fmt.Sprintf("block %d", i), off, false)
		if err != nil {
			return bad("%v", err)
		}
		if bm.cLen == 0 || bm.uLen == 0 {
			return bad("block %d: empty frame", i)
		}
		foot.blocks[i] = bm
		off += bm.cLen
	}
	if off+footerLen+trailerSize != size {
		return bad("sections end at %d but footer starts at %d", off, size-trailerSize-footerLen)
	}

	nTerms, err := c.uvarint()
	if err != nil {
		return bad("term count: %v", err)
	}
	// Each term entry is at least 5 varint bytes of footer.
	if nTerms > uint64(c.remaining())/5 {
		return bad("term count %d exceeds what %d footer bytes can hold", nTerms, c.remaining())
	}
	foot.terms = make([]termEntry, 0, nTerms)
	prev, prevBlock := "", int64(0)
	for i := uint64(0); i < nTerms; i++ {
		shared, err1 := c.uvarint()
		suffixLen, err2 := c.uvarint()
		if err := errors.Join(err1, err2); err != nil {
			return bad("term %d: %v", i, err)
		}
		if shared > uint64(len(prev)) {
			return bad("term %d: shared prefix %d longer than previous term", i, shared)
		}
		suffix, err := c.bytes(int(suffixLen))
		if err != nil {
			return bad("term %d: suffix: %v", i, err)
		}
		term := prev[:shared] + string(suffix)
		if term <= prev && i > 0 {
			return bad("term %d: %q not sorted after %q", i, term, prev)
		}
		blockDelta, err1 := c.uvarint()
		offIn, err2 := c.uvarint()
		count, err3 := c.uvarint()
		if err := errors.Join(err1, err2, err3); err != nil {
			return bad("term %q: %v", term, err)
		}
		block := prevBlock + int64(blockDelta)
		if block >= int64(len(foot.blocks)) {
			return bad("term %q: block %d of %d", term, block, len(foot.blocks))
		}
		uLen := uint64(foot.blocks[block].uLen)
		// Every posting occupies at least one byte of the block, so offset + count must fit inside it.
		if offIn > uLen || count > uLen-offIn {
			return bad("term %q: %d postings at offset %d exceed block of %d bytes", term, count, offIn, uLen)
		}
		foot.terms = append(foot.terms, termEntry{
			term:  term,
			block: int32(block),
			off:   int32(offIn),
			count: int32(count),
		})
		prev, prevBlock = term, block
	}
	return &foot, nil
}

// cursor walks a byte slice of varints.
type cursor struct {
	buf []byte
	off int
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		return 0, errors.New("truncated varint")
	}
	c.off += n
	return v, nil
}

func (c *cursor) bytes(n int) ([]byte, error) {
	if n < 0 || n > len(c.buf)-c.off {
		return nil, fmt.Errorf("%d bytes past end", n)
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *cursor) remaining() int { return len(c.buf) - c.off }

// maxInflateRatio is the most a deflate stream can expand (a 258-byte
// match costs at least two bits).
const maxInflateRatio = 1032

// inflate decompresses a flate stream that must yield exactly uLen bytes,
// into a slice of exactly that capacity: the block cache accounts a block
// by len(data), so spare capacity would be resident memory it cannot see.
// It serves the values section.
func inflate(cbuf []byte, uLen int64) ([]byte, error) {
	// A claim no stream of this size can meet is a corrupt frame, caught
	// before the allocation it asks for.
	if uLen > int64(len(cbuf))*maxInflateRatio {
		return nil, fmt.Errorf("inflate: %d bytes cannot come from %d compressed", uLen, len(cbuf))
	}
	fr := flate.NewReader(bytes.NewReader(cbuf))
	defer fr.Close()
	data := make([]byte, uLen)
	if n, err := io.ReadFull(fr, data); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return nil, fmt.Errorf("inflate: %d bytes, want %d", n, uLen)
		}
		return nil, fmt.Errorf("inflate: %v", err)
	}
	var over [1]byte
	if n, err := io.ReadFull(fr, over[:]); n != 0 {
		return nil, fmt.Errorf("inflate: more than the %d bytes wanted", uLen)
	} else if err != io.EOF {
		return nil, fmt.Errorf("inflate: %v", err)
	}
	return data, nil
}

// inflate is the package's inflate, counted.
func (r *Reader) inflate(cbuf []byte, uLen int64) ([]byte, error) {
	r.inflates.Add(1)
	return inflate(cbuf, uLen)
}

// Index returns the lazily-backed index view of the segment: meta is
// resident, posting lists are fetched through the reader on demand. The
// index stays valid until Close.
func (r *Reader) Index() *index.Index { return r.ix }

// Stats returns the index statistics recorded in the footer.
func (r *Reader) Stats() index.Stats { return r.stats }

// Path returns the file path the reader serves.
func (r *Reader) Path() string { return r.path }

// TermCount returns the number of distinct terms in the directory.
func (r *Reader) TermCount() int { return len(r.terms) }

// NumBlocks returns the number of posting blocks in the segment.
func (r *Reader) NumBlocks() int { return len(r.blocks) }

// Cache returns the block cache the reader fetches through. When the
// cache is shared, its Bytes()/Len() cover every attached reader.
func (r *Reader) Cache() *BlockCache { return r.cache }

// ForEachTerm calls f for every term in sorted order with its posting
// count. The directory is resident, so iteration performs no I/O; the
// only error returned is f's own.
func (r *Reader) ForEachTerm(f func(term string, count int) error) error {
	for i := range r.terms {
		if err := f(r.terms[i].term, int(r.terms[i].count)); err != nil {
			return err
		}
	}
	return nil
}

// Postings returns the posting list for term, fetching (and caching) its
// block if needed. An absent term returns (nil, nil). The returned slice
// is freshly decoded and owned by the caller.
func (r *Reader) Postings(term string) ([]int32, error) {
	i := sort.Search(len(r.terms), func(i int) bool { return r.terms[i].term >= term })
	if i >= len(r.terms) || r.terms[i].term != term {
		return nil, nil
	}
	t := &r.terms[i]
	block, err := r.fetchBlock(t.block)
	if err != nil {
		return nil, err
	}
	if int(t.off) > len(block) {
		return nil, corruptf("segment %s: term %q offset %d past block end %d", r.path, term, t.off, len(block))
	}
	list, _, err := postings.Decode(block[t.off:], int(t.count))
	if err != nil {
		return nil, corruptf("segment %s: term %q: %v", r.path, term, err)
	}
	// postings.Decode tolerates zero deltas (it only forbids overflow), so
	// re-validate what the index invariants require: strictly increasing
	// ordinals inside the node table. A flipped bit that survives into a
	// plausible varint stream dies here, not in the search engine.
	prev := int32(-1)
	for _, v := range list {
		if v <= prev || int(v) >= r.nNodes {
			return nil, corruptf("segment %s: term %q: ordinal %d out of order or range", r.path, term, v)
		}
		prev = v
	}
	return list, nil
}

// fetchBlock returns block b's posting bytes, via the cache: a miss is one
// pread plus a CRC; blocks are stored raw, so nothing is inflated.
func (r *Reader) fetchBlock(b int32) ([]byte, error) {
	key := cacheKey{rid: r.rid, block: b}
	if data, ok := r.cache.get(key); ok {
		return data, nil
	}
	if r.closed.Load() {
		return nil, fmt.Errorf("segment %s: reader is closed", r.path)
	}
	bm := &r.blocks[b]
	start := time.Now()
	data := make([]byte, bm.cLen)
	if _, err := r.f.ReadAt(data, bm.off); err != nil {
		if errors.Is(err, os.ErrClosed) {
			return nil, fmt.Errorf("segment %s: reader is closed", r.path)
		}
		return nil, corruptf("segment %s: block %d: read: %v", r.path, b, err)
	}
	if crc32.ChecksumIEEE(data) != bm.crc {
		return nil, corruptf("segment %s: block %d: checksum mismatch", r.path, b)
	}
	r.metrics.ObserveBlockFetch(time.Since(start))
	r.cache.put(key, data)
	return data, nil
}

// Close releases the file descriptor and evicts this reader's blocks from
// the cache. Safe to call more than once. Posting fetches after Close
// fail; already-materialized results remain valid.
func (r *Reader) Close() error {
	r.closeOnce.Do(func() {
		r.closed.Store(true)
		runtime.SetFinalizer(r, nil)
		r.cache.DropReader(r.rid)
		r.closeErr = r.f.Close()
	})
	return r.closeErr
}

func (r *Reader) finalize() { r.Close() }

// ReadStats returns the index statistics of a GKS4 segment by reading
// only the trailer and footer — no posting block and not even the meta
// section is touched, so `gks stats` on a huge segment is O(footer).
func ReadStats(path string) (index.Stats, error) {
	f, _, foot, err := openFooter(path)
	if err != nil {
		return index.Stats{}, err
	}
	f.Close()
	return foot.stats, nil
}
