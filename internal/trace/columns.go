package trace

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
)

// parseFrameBytes parses one chunk frame from an in-memory byte span:
// length prefixes, compression kind, CRC over the stored payload, and
// exact consumption of the span.
func parseFrameBytes(buf []byte) (frame, error) {
	pos := 0
	rawLen, pos, err := uvarintAt(buf, pos)
	if err != nil {
		return frame{}, fmt.Errorf("read chunk length: %w", err)
	}
	if rawLen == 0 || rawLen > maxFrameBytes {
		return frame{}, fmt.Errorf("bad chunk raw length %d", rawLen)
	}
	if pos >= len(buf) {
		return frame{}, fmt.Errorf("read compression kind: %w", io.ErrUnexpectedEOF)
	}
	kind := buf[pos]
	pos++
	compLen, pos, err := uvarintAt(buf, pos)
	if err != nil {
		return frame{}, fmt.Errorf("read payload length: %w", err)
	}
	if compLen > maxFrameBytes {
		return frame{}, fmt.Errorf("chunk payload length %d too large", compLen)
	}
	if pos+4+int(compLen) != len(buf) {
		return frame{}, fmt.Errorf("chunk frame spans %d bytes, index records %d", pos+4+int(compLen), len(buf))
	}
	crc := binary.LittleEndian.Uint32(buf[pos:])
	payload := buf[pos+4:]
	if crc != crc32.ChecksumIEEE(payload) {
		return frame{}, fmt.Errorf("chunk checksum mismatch")
	}
	return frame{rawLen: int(rawLen), kind: kind, payload: payload}, nil
}

// columnSource streams decoded column chunks from a work-claiming
// worker pool: each worker atomically claims the next undecoded chunk,
// so a worker that lands on a cheap chunk immediately claims another
// instead of idling behind a fixed stripe (the failure mode of striped
// ownership when chunk decode costs are skewed — exactly the shape a
// run-native trace has, where a loop-dominated chunk is a handful of tokens
// and a branchy one is thousands). Commit order is restored by a slot
// ring: chunk c is delivered through slot (c-lo) mod window, and the
// slot's gate admits a claimant only after the chunk one window
// earlier has been consumed, which simultaneously bounds decoded
// chunks in flight. Decode slabs are recycled through a sync.Pool,
// so steady-state decoding allocates nothing.
type columnSource struct {
	slots []colSlot
	claim atomic.Int64
	pool  sync.Pool // *runstream.Chunk decode slabs
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
	lo    int
	hi    int
	next  int
	err   error
}

// colSlot is one position of the delivery ring.
type colSlot struct {
	gate chan struct{} // cap 1, seeded: admits the slot's next claimant
	msg  chan colMsg   // cap 1: the slot's decoded chunk or error
}

type colMsg struct {
	ch  *runstream.Chunk
	err error
}

// chunksPerWorker sizes the delivery ring per worker: how many decoded
// chunks may sit between the claim frontier and the consumer before
// claimants block on their slot gates.
const chunksPerWorker = 3

// Columns returns a column source over chunks [lo, hi), decoded by a
// pool of work-claiming workers (clamped to at least 1). Chunks are
// read directly at their indexed offsets, so workers share nothing but
// the ReaderAt and the immutable bound dictionary; per-chunk
// validation matches ScanRunTokens (chunkFrame's checks, then base and
// event-count cross-checks against the index). The context is checked
// once per chunk.
func (ir *IndexedReader) Columns(ctx context.Context, prog *isa.Program, lo, hi, workers int) runstream.Source {
	if lo < 0 || hi > len(ir.chunks) || lo > hi {
		panic(fmt.Sprintf("trace: Columns [%d,%d) outside %d chunks", lo, hi, len(ir.chunks)))
	}
	if workers < 1 {
		workers = 1
	}
	if workers > hi-lo {
		workers = hi - lo
	}
	s := &columnSource{stop: make(chan struct{}), lo: lo, hi: hi, next: lo}
	s.claim.Store(int64(lo))
	if workers == 0 {
		return s // empty range: Next returns io.EOF immediately
	}
	// Bind the dictionary to prog once, up front: workers then share
	// its per-run class offsets read-only.
	if err := ir.dict.bindShared(prog); err != nil {
		s.err = err
		return s
	}
	window := workers * chunksPerWorker
	if window > hi-lo {
		window = hi - lo
	}
	s.slots = make([]colSlot, window)
	for i := range s.slots {
		s.slots[i] = colSlot{gate: make(chan struct{}, 1), msg: make(chan colMsg, 1)}
		s.slots[i].gate <- struct{}{}
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker(ctx, ir)
	}
	return s
}

func (s *columnSource) worker(ctx context.Context, ir *IndexedReader) {
	defer s.wg.Done()
	dec := &decoder{dict: ir.dict}
	var buf []byte
	for {
		c := int(s.claim.Add(1)) - 1
		if c >= s.hi {
			return
		}
		slot := &s.slots[(c-s.lo)%len(s.slots)]
		select {
		case <-slot.gate:
		case <-s.stop:
			return
		}
		var msg colMsg
		msg.ch, msg.err = s.decodeChunk(ctx, ir, dec, &buf, c)
		select {
		case slot.msg <- msg:
		case <-s.stop:
			return
		}
		if msg.err != nil {
			// The consumer sees the error at this chunk's ordered
			// position and closes stop; don't claim past it.
			return
		}
	}
}

// decodeChunk reads, validates, and column-decodes chunk c into a
// pooled chunk.
func (s *columnSource) decodeChunk(ctx context.Context, ir *IndexedReader, dec *decoder, buf *[]byte, c int) (*runstream.Chunk, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("trace: columns: %w", err)
	}
	f, err := ir.chunkFrame(c, buf)
	if err != nil {
		return nil, err
	}
	raw, err := dec.frameBytes(f)
	if err != nil {
		return nil, err
	}
	ch, _ := s.pool.Get().(*runstream.Chunk)
	if ch == nil {
		ch = &runstream.Chunk{}
	}
	if err := decodeChunkColumnsV4(raw, ir.dict, ch, &dec.sc); err != nil {
		s.pool.Put(ch)
		return nil, err
	}
	if err := ir.checkChunk(c, ch.Base, ch.N); err != nil {
		s.pool.Put(ch)
		return nil, err
	}
	return ch, nil
}

// Next implements runstream.Source.
func (s *columnSource) Next() (*runstream.Chunk, func(), error) {
	if s.err != nil {
		return nil, nil, s.err
	}
	if s.next >= s.hi {
		return nil, nil, io.EOF
	}
	slot := &s.slots[(s.next-s.lo)%len(s.slots)]
	msg := <-slot.msg
	if msg.err != nil {
		s.err = msg.err
		s.once.Do(func() { close(s.stop) })
		return nil, nil, msg.err
	}
	s.next++
	slot.gate <- struct{}{} // admit the chunk one window later
	ch := msg.ch
	release := func() { s.pool.Put(ch) }
	return ch, release, nil
}

// Close implements runstream.Source, stopping the decode workers. It
// is safe to call at any time; in-flight chunks stay valid until their
// release functions run.
func (s *columnSource) Close() {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
}
