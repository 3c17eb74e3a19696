package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"bioperfload/internal/isa"
)

// ErrRetiredFormat reports a trace written in a format this build no
// longer reads (v1–v3). The bytes are not damaged; the file has to be
// re-recorded, and the artifact store treats it like a miss.
var ErrRetiredFormat = errors.New("trace: retired format")

// IndexedReader opens a trace through an io.ReaderAt and exposes its
// footer chunk index, so disjoint chunk ranges can be decoded
// concurrently by shard workers. It performs a few reads up front
// (header, fixed footer tail, run dictionary, index payload) and
// validates every CRC; Columns and ScanRunTokens then serve
// bounds-checked sections of the file.
type IndexedReader struct {
	ra      io.ReaderAt
	meta    Meta
	chunks  []chunkInfo
	bases   []uint64 // sequence number of each chunk's first event
	total   uint64
	dataEnd int64 // offset one past the last frame (the terminator byte)
	// dict is the footer's run dictionary. Chunks are decoded against
	// it, so any chunk range can be served without replaying the
	// prefix that grew the dictionary.
	dict *v4Dict
}

// readHeader parses and validates the header at the start of ra (magic,
// meta document, meta CRC) and returns the meta document plus the
// offset of the first chunk frame. A v1–v3 magic returns a wrapped
// ErrRetiredFormat.
func readHeader(ra io.ReaderAt, size int64) (Meta, int64, error) {
	br := bufio.NewReader(io.NewSectionReader(ra, 0, size))
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return Meta{}, 0, fmt.Errorf("trace: read magic: %w", err)
	}
	if magic != headerMagic(FormatVersion) {
		for v := 1; v < FormatVersion; v++ {
			if magic == headerMagic(v) {
				return Meta{}, 0, fmt.Errorf("%w v%d: re-record the trace (this build reads format v%d only)",
					ErrRetiredFormat, v, FormatVersion)
			}
		}
		return Meta{}, 0, fmt.Errorf("trace: bad magic %q (want %q)", magic[:], headerMagic(FormatVersion))
	}
	metaLen, err := binary.ReadUvarint(br)
	if err != nil {
		return Meta{}, 0, fmt.Errorf("trace: read meta length: %w", err)
	}
	if metaLen > 1<<20 {
		return Meta{}, 0, fmt.Errorf("trace: meta length %d too large", metaLen)
	}
	metaBuf := make([]byte, metaLen+4)
	if _, err := io.ReadFull(br, metaBuf); err != nil {
		return Meta{}, 0, fmt.Errorf("trace: read meta: %w", err)
	}
	if binary.LittleEndian.Uint32(metaBuf[metaLen:]) != crc32.ChecksumIEEE(metaBuf[:metaLen]) {
		return Meta{}, 0, fmt.Errorf("trace: meta checksum mismatch")
	}
	var meta Meta
	if err := json.Unmarshal(metaBuf[:metaLen], &meta); err != nil {
		return Meta{}, 0, fmt.Errorf("trace: decode meta: %w", err)
	}
	dataStart := int64(len(magic)) + int64(len(binary.AppendUvarint(nil, metaLen))) + int64(len(metaBuf))
	return meta, dataStart, nil
}

// NewIndexedReader parses the header, run dictionary and footer index
// of a trace of the given size.
func NewIndexedReader(ra io.ReaderAt, size int64) (*IndexedReader, error) {
	meta, dataStart, err := readHeader(ra, size)
	if err != nil {
		return nil, err
	}
	if size < dataStart+1+tailFixedLen {
		return nil, fmt.Errorf("trace: file size %d too small for a trailer", size)
	}
	fixed := make([]byte, tailFixedLen)
	if _, err := ra.ReadAt(fixed, size-tailFixedLen); err != nil {
		return nil, fmt.Errorf("trace: read footer tail: %w", err)
	}
	var magic [8]byte
	copy(magic[:], fixed[tailLen+4:])
	if magic != footerMagic(FormatVersion) {
		return nil, fmt.Errorf("trace: bad footer magic %q", magic[:])
	}
	if binary.LittleEndian.Uint32(fixed[tailLen:tailLen+4]) != crc32.ChecksumIEEE(fixed[:tailLen]) {
		return nil, fmt.Errorf("trace: footer tail checksum mismatch")
	}
	indexLen := binary.LittleEndian.Uint64(fixed[0:8])
	total := binary.LittleEndian.Uint64(fixed[8:16])
	count := binary.LittleEndian.Uint64(fixed[16:24])
	dictLen := binary.LittleEndian.Uint64(fixed[24:32])
	if count > maxIndexChunks {
		return nil, fmt.Errorf("trace: index claims %d chunks (max %d)", count, maxIndexChunks)
	}
	if dictLen > uint64(size) {
		return nil, fmt.Errorf("trace: dictionary length %d does not fit the file", dictLen)
	}
	// The index sits just before its CRC and the fixed tail; the
	// CRC-guarded run dictionary sits between the terminator byte and
	// the index.
	idxStart := size - tailFixedLen - 4 - int64(indexLen)
	dataEnd := idxStart - 4 - int64(dictLen) - 1
	if indexLen > uint64(size) || dataEnd < dataStart {
		return nil, fmt.Errorf("trace: index length %d does not fit the file", indexLen)
	}
	dbuf := make([]byte, dictLen+4)
	if _, err := ra.ReadAt(dbuf, dataEnd+1); err != nil {
		return nil, fmt.Errorf("trace: read run dictionary: %w", err)
	}
	if binary.LittleEndian.Uint32(dbuf[dictLen:]) != crc32.ChecksumIEEE(dbuf[:dictLen]) {
		return nil, fmt.Errorf("trace: dictionary checksum mismatch")
	}
	dict, err := parseDictPayload(dbuf[:dictLen])
	if err != nil {
		return nil, err
	}
	// The terminator byte ends the data section.
	var term [1]byte
	if _, err := ra.ReadAt(term[:], dataEnd); err != nil {
		return nil, fmt.Errorf("trace: read terminator: %w", err)
	}
	if term[0] != 0 {
		return nil, fmt.Errorf("trace: bad terminator byte %#x before footer", term[0])
	}
	buf := make([]byte, indexLen+4)
	if _, err := ra.ReadAt(buf, idxStart); err != nil {
		return nil, fmt.Errorf("trace: read chunk index: %w", err)
	}
	idx := buf[:indexLen]
	if binary.LittleEndian.Uint32(buf[indexLen:]) != crc32.ChecksumIEEE(idx) {
		return nil, fmt.Errorf("trace: index checksum mismatch")
	}
	pos := 0
	uvarint := func() (uint64, error) {
		u, n := binary.Uvarint(idx[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: truncated index varint at offset %d", pos)
		}
		pos += n
		return u, nil
	}
	gotCount, err := uvarint()
	if err != nil {
		return nil, err
	}
	if gotCount != count {
		return nil, fmt.Errorf("trace: index records %d chunks, footer tail %d", gotCount, count)
	}
	chunks := make([]chunkInfo, count)
	bases := make([]uint64, count)
	prevOff := int64(0)
	var events uint64
	for i := range chunks {
		delta, err := uvarint()
		if err != nil {
			return nil, err
		}
		ev, err := uvarint()
		if err != nil {
			return nil, err
		}
		off := prevOff + int64(delta)
		if off < dataStart || off >= dataEnd {
			return nil, fmt.Errorf("trace: index offset %d for chunk %d outside the data section", off, i)
		}
		if i > 0 && off <= chunks[i-1].offset {
			return nil, fmt.Errorf("trace: index offsets not increasing at chunk %d", i)
		}
		if ev == 0 || ev > maxChunkEvents {
			return nil, fmt.Errorf("trace: index records %d events for chunk %d", ev, i)
		}
		chunks[i] = chunkInfo{offset: off, events: ev}
		bases[i] = events
		events += ev
		prevOff = off
	}
	if pos != len(idx) {
		return nil, fmt.Errorf("trace: %d trailing bytes after chunk index", len(idx)-pos)
	}
	if events != total {
		return nil, fmt.Errorf("trace: index sums to %d events, footer records %d", events, total)
	}
	if count > 0 && chunks[0].offset != dataStart {
		return nil, fmt.Errorf("trace: first chunk at offset %d, data section starts at %d", chunks[0].offset, dataStart)
	}
	return &IndexedReader{
		ra:      ra,
		meta:    meta,
		chunks:  chunks,
		bases:   bases,
		total:   total,
		dataEnd: dataEnd,
		dict:    dict,
	}, nil
}

// Meta returns the header document.
func (ir *IndexedReader) Meta() Meta { return ir.meta }

// Chunks returns the number of chunks in the trace.
func (ir *IndexedReader) Chunks() int { return len(ir.chunks) }

// TotalEvents returns the footer's event count.
func (ir *IndexedReader) TotalEvents() uint64 { return ir.total }

// Base returns the sequence number of chunk i's first event.
func (ir *IndexedReader) Base(i int) uint64 { return ir.bases[i] }

// rangeEnd returns the file offset one past chunk hi-1's frame.
func (ir *IndexedReader) rangeEnd(hi int) int64 {
	if hi < len(ir.chunks) {
		return ir.chunks[hi].offset
	}
	return ir.dataEnd
}

// ScanRunTokens decodes only the token stream of chunks [lo, hi),
// reporting the committed PC sequence as run(pc, n, rep): rep
// consecutive executions of the n-event straight-line run pc, pc+1,
// ..., pc+n-1, in commit order. Expanding each callback rep times
// reproduces exactly the PC sequence the column tokens expand to. The
// repeats come straight off the token stream, so a tight loop that
// dominates a phase costs one callback (adjacent callbacks may still
// repeat the same run when a chunk boundary splits a repeat). With a
// split-compressed frame the taken and address columns are never even
// decompressed, which makes a phase-vector scan several times cheaper
// than a column decode. Frames get the same checks Columns applies,
// and the token stream gets the full decoder's structural checks. The
// context is checked once per chunk.
func (ir *IndexedReader) ScanRunTokens(ctx context.Context, prog *isa.Program, lo, hi int, run func(pc, n int32, rep int64)) error {
	if lo < 0 || hi > len(ir.chunks) || lo > hi {
		panic(fmt.Sprintf("trace: ScanRunTokens [%d,%d) outside %d chunks", lo, hi, len(ir.chunks)))
	}
	if lo == hi {
		return nil
	}
	dec := &decoder{dict: ir.dict}
	// Binding validates every dictionary run against prog's
	// instruction count, so every reported run lies inside prog.
	if err := ir.dict.bindShared(prog); err != nil {
		return err
	}
	var buf []byte
	for chunk := lo; chunk < hi; chunk++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		f, err := ir.chunkFrame(chunk, &buf)
		if err != nil {
			return err
		}
		col, err := dec.frameTokens(f)
		if err != nil {
			return err
		}
		base, n, err := scanChunkTokensV4(col, ir.dict, &dec.sc, run)
		if err != nil {
			return err
		}
		if err := ir.checkChunk(chunk, base, n); err != nil {
			return err
		}
	}
	return nil
}

// chunkFrame reads chunk c's frame at its indexed offset into *buf
// (grown as needed and reused across calls) and validates it: the
// frame must span exactly its index entry and match its CRC.
func (ir *IndexedReader) chunkFrame(c int, buf *[]byte) (frame, error) {
	off := ir.chunks[c].offset
	flen := ir.rangeEnd(c+1) - off
	if cap(*buf) < int(flen) {
		*buf = make([]byte, flen)
	}
	b := (*buf)[:flen]
	if _, err := ir.ra.ReadAt(b, off); err != nil {
		return frame{}, fmt.Errorf("trace: chunk %d: read frame: %w", c, err)
	}
	f, err := parseFrameBytes(b)
	if err != nil {
		return frame{}, fmt.Errorf("trace: chunk %d: %w", c, err)
	}
	return f, nil
}

// checkChunk cross-checks a decoded chunk's base and event count
// against the footer index.
func (ir *IndexedReader) checkChunk(c int, base uint64, n int) error {
	if base != ir.bases[c] {
		return fmt.Errorf("trace: chunk %d base %d, expected %d", c, base, ir.bases[c])
	}
	if uint64(n) != ir.chunks[c].events {
		return fmt.Errorf("trace: chunk %d decoded %d events, index records %d", c, n, ir.chunks[c].events)
	}
	return nil
}
