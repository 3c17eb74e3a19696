package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// FormatVersion is bumped whenever the on-disk layout changes; it is
// baked into both the header magic and artifact-store fingerprints so
// stale traces read as misses rather than garbage.
//
// Version history:
//
//	1  chunked columnar stream, counts-only footer
//	2  adds a per-chunk offset index to the footer so a reader with
//	   random access (io.ReaderAt) can hand disjoint chunk ranges to
//	   shard workers, and switches the chunk PC and target columns to
//	   sparse encodings (exception bitmaps + deltas for non-sequential
//	   PCs and non-fallthrough targets only)
//	3  front-loads the PC column inside each chunk and compresses it as
//	   its own flate stream (compressionSplit) so a PC-only scan — the
//	   phase analysis BBV pass — decompresses only a few percent of
//	   each chunk's payload
//	4  run-native encoding: a trace-wide dictionary of straight-line
//	   PC runs (grown chunk by chunk, repeated CRC-guarded in the
//	   footer) turns each chunk into a stream of (run-id, repeat)
//	   tokens plus a conditional-branch taken bitmap and a per-static-
//	   site delta-coded address column — see codecv4.go. Requires the
//	   program at write time (NewWriter's prog) so the encoder can
//	   verify the stream is run-representable.
//
// Writers emit v4 and readers accept v4 only: a v1–v3 file opens with
// ErrRetiredFormat and has to be re-recorded.
const FormatVersion = 4

// headerMagic returns the header magic for a format version.
func headerMagic(version int) [8]byte {
	return [8]byte{'B', 'P', 'T', 'R', 'A', 'C', 'E', '0' + byte(version)}
}

// footerMagic returns the footer magic for a format version.
func footerMagic(version int) [8]byte {
	return [8]byte{'B', 'P', 'T', 'R', 'E', 'N', 'D', '0' + byte(version)}
}

// Compression kinds recorded per chunk frame.
const (
	compressionNone  = 0
	compressionFlate = 1
	// compressionSplit compresses the chunk as two independent flate
	// streams cut at the end of the token stream, so a run-only scan
	// inflates just the first. (Go's inflater decodes a whole 32KiB
	// window before returning any byte, so a partial read of a single
	// stream cannot skip work — only a separate stream can.)
	compressionSplit = 2
)

// maxFrameBytes caps the compressed-frame allocation a corrupted
// length prefix can request.
const maxFrameBytes = 64 << 20

// maxIndexChunks caps the chunk-index allocation a corrupted footer
// can request (a real trace at the default chunk size would need
// ~275G events to hit it).
const maxIndexChunks = 1 << 22

// Meta is the trace header document: enough identity to rebind the
// stream to the program that produced it, and to reject a replay
// against the wrong binary.
type Meta struct {
	// Program is the program name the trace was recorded from.
	Program string `json:"program"`
	// Fingerprint identifies the exact compiled artifact + input
	// configuration (see runner.Fingerprint); replaying against a
	// program with a different fingerprint is refused.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Size is the input-size label the run was bound with.
	Size string `json:"size,omitempty"`
	// ChunkEvents is the writer's chunk capacity.
	ChunkEvents int `json:"chunk_events"`
	// Compression names the per-chunk codec ("flate" or "none").
	Compression string `json:"compression"`
}

// chunkInfo is one entry of the footer index: where a chunk's frame
// starts and how many events it decodes to. Base sequence numbers are
// recovered by prefix-summing the event counts.
type chunkInfo struct {
	offset int64
	events uint64
}

// Writer encodes a committed-instruction stream to w. It implements
// sim.BatchObserver, so recording a trace is one AddBatchObserver call
// on the machine: events accumulate into chunks which are encoded,
// compressed, CRC-stamped, and framed as they fill. Close flushes the
// final partial chunk and the footer; it does not close w.
//
// I/O and encoding errors inside ObserveBatch are sticky: the first
// one is retained, further batches are dropped, and Close returns it.
type Writer struct {
	w      io.Writer
	meta   Meta
	flate  bool
	recs   []Record
	base   uint64
	total  uint64
	off    int64 // bytes written so far; next frame starts here
	index  []chunkInfo
	raw    []byte
	comp   bytes.Buffer
	split  []byte
	fw     *flate.Writer
	enc    *v4Writer // run-native encoder state
	err    error
	header bool
	closed bool
}

// NewWriter creates a trace writer. Zero-valued meta fields are
// defaulted (ChunkEvents, Compression); the header is written lazily
// with the first chunk so an aborted recording can leave nothing
// behind.
//
// prog is the program the stream is recorded from and is required:
// the run-native encoder builds the run dictionary from it and
// verifies the stream is run-representable. A stream that is not —
// synthetic events whose targets are not the next committed PC, for
// example — fails the writer with a sticky error.
func NewWriter(w io.Writer, meta Meta, prog *isa.Program) *Writer {
	if prog == nil {
		panic("trace: NewWriter requires the program")
	}
	if meta.ChunkEvents <= 0 {
		meta.ChunkEvents = ChunkEvents
	}
	if meta.Compression == "" {
		meta.Compression = "flate"
	}
	return &Writer{
		w:     w,
		meta:  meta,
		flate: meta.Compression == "flate",
		recs:  make([]Record, 0, meta.ChunkEvents),
		enc:   newV4Writer(prog),
	}
}

var _ sim.BatchObserver = (*Writer)(nil)

// ObserveBatch implements sim.BatchObserver: the slab is copied into
// the writer's chunk buffer immediately (the simulator recycles it the
// moment this returns) and full chunks are flushed inline.
func (tw *Writer) ObserveBatch(evs []sim.Event) {
	if tw.err != nil || tw.closed {
		return
	}
	for i := range evs {
		tw.recs = append(tw.recs, Record{
			PC:     evs[i].PC,
			Target: evs[i].Target,
			Addr:   evs[i].Addr,
			Taken:  evs[i].Taken,
		})
		if len(tw.recs) == cap(tw.recs) {
			tw.flush()
		}
	}
}

// Err returns the writer's sticky error.
func (tw *Writer) Err() error { return tw.err }

// Events returns how many events have been accepted so far.
func (tw *Writer) Events() uint64 { return tw.total + uint64(len(tw.recs)) }

func (tw *Writer) writeHeader() {
	if tw.header {
		return
	}
	tw.header = true
	meta, err := json.Marshal(tw.meta)
	if err != nil {
		tw.err = fmt.Errorf("trace: encode meta: %w", err)
		return
	}
	var buf []byte
	magic := headerMagic(FormatVersion)
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(meta)))
	buf = append(buf, meta...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(meta))
	if _, err := tw.w.Write(buf); err != nil {
		tw.err = fmt.Errorf("trace: write header: %w", err)
		return
	}
	tw.off += int64(len(buf))
}

// flush encodes, compresses, and frames the pending chunk.
func (tw *Writer) flush() {
	if tw.err != nil || len(tw.recs) == 0 {
		return
	}
	tw.writeHeader()
	if tw.err != nil {
		return
	}
	var cut int
	var err error
	tw.raw, cut, err = tw.enc.appendChunk(tw.raw[:0], tw.base, tw.recs)
	if err != nil {
		tw.err = err
		return
	}
	payload := tw.raw
	kind := byte(compressionNone)
	if tw.flate {
		tw.comp.Reset()
		if tw.fw == nil {
			tw.fw, _ = flate.NewWriter(&tw.comp, flate.BestSpeed)
		} else {
			tw.fw.Reset(&tw.comp)
		}
		if cut > 0 && cut < len(tw.raw) {
			// Two streams: [0,cut) is the token stream, [cut,len) the
			// taken and address columns.
			len1 := -1
			if _, err := tw.fw.Write(tw.raw[:cut]); err == nil && tw.fw.Close() == nil {
				len1 = tw.comp.Len()
				tw.fw.Reset(&tw.comp)
				if _, err := tw.fw.Write(tw.raw[cut:]); err != nil || tw.fw.Close() != nil {
					len1 = -1
				}
			}
			if len1 >= 0 {
				tw.split = binary.AppendUvarint(tw.split[:0], uint64(cut))
				tw.split = binary.AppendUvarint(tw.split, uint64(len1))
				tw.split = append(tw.split, tw.comp.Bytes()...)
				if len(tw.split) < len(tw.raw) {
					payload = tw.split
					kind = compressionSplit
				}
			}
		} else if _, err := tw.fw.Write(tw.raw); err == nil {
			if err := tw.fw.Close(); err == nil && tw.comp.Len() < len(tw.raw) {
				payload = tw.comp.Bytes()
				kind = compressionFlate
			}
		}
	}
	var frame []byte
	frame = binary.AppendUvarint(frame, uint64(len(tw.raw)))
	frame = append(frame, kind)
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	if _, err := tw.w.Write(frame); err != nil {
		tw.err = fmt.Errorf("trace: write frame: %w", err)
		return
	}
	if _, err := tw.w.Write(payload); err != nil {
		tw.err = fmt.Errorf("trace: write chunk: %w", err)
		return
	}
	tw.index = append(tw.index, chunkInfo{offset: tw.off, events: uint64(len(tw.recs))})
	tw.off += int64(len(frame)) + int64(len(payload))
	tw.base += uint64(len(tw.recs))
	tw.total = tw.base
	tw.recs = tw.recs[:0]
}

// Close flushes the final partial chunk and writes the terminator and
// footer: the CRC-guarded run dictionary, the CRC-guarded per-chunk
// offset index, and a fixed-size tail an io.ReaderAt consumer locates
// them from (see codecv4.go for the geometry). Close returns the
// writer's sticky error, and does not close the underlying writer.
func (tw *Writer) Close() error {
	if tw.closed {
		return tw.err
	}
	tw.closed = true
	tw.flush()
	tw.writeHeader() // empty trace still gets a valid header
	if tw.err != nil {
		return tw.err
	}
	var buf []byte
	buf = binary.AppendUvarint(buf, 0) // terminator: rawLen 0
	// The full run dictionary precedes the index so a random-access
	// reader can decode any chunk without replaying the prefix that
	// grew it.
	dict := appendDictPayload(nil, tw.enc.dict.runs)
	buf = append(buf, dict...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(dict))
	var idx []byte
	idx = binary.AppendUvarint(idx, uint64(len(tw.index)))
	prev := int64(0)
	for _, ci := range tw.index {
		idx = binary.AppendUvarint(idx, uint64(ci.offset-prev))
		idx = binary.AppendUvarint(idx, ci.events)
		prev = ci.offset
	}
	buf = append(buf, idx...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(idx))
	var tail [tailLen]byte
	binary.LittleEndian.PutUint64(tail[0:8], uint64(len(idx)))
	binary.LittleEndian.PutUint64(tail[8:16], tw.total)
	binary.LittleEndian.PutUint64(tail[16:24], uint64(len(tw.index)))
	binary.LittleEndian.PutUint64(tail[24:32], uint64(len(dict)))
	buf = append(buf, tail[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(tail[:]))
	magic := footerMagic(FormatVersion)
	buf = append(buf, magic[:]...)
	if _, err := tw.w.Write(buf); err != nil {
		tw.err = fmt.Errorf("trace: write footer: %w", err)
	}
	return tw.err
}

// frame is one undecoded chunk as read from the file.
type frame struct {
	rawLen  int
	kind    byte
	payload []byte
}
