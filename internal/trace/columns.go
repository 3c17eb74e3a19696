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
// ring: chunk c is delivered through slot (c-lo) mod window, and its
// claimant may decode it only once the chunk one window earlier — the
// slot's previous occupant — has been consumed, which simultaneously
// bounds decoded chunks in flight. Admission is by chunk number, not
// by a per-slot token, so the claimant of c+window can never be
// admitted ahead of c's and be delivered in its place. Decode slabs
// are recycled through a sync.Pool, so steady-state decoding
// allocates nothing.
type columnSource struct {
	slots []chan colMsg // the delivery ring; cap 1: a slot's decoded chunk or error
	claim atomic.Int64
	pool  sync.Pool // *runstream.Chunk decode slabs
	wg    sync.WaitGroup
	lo    int
	hi    int
	next  int
	err   error

	// mu guards admitted and stopped; cond broadcasts changes to either.
	mu       sync.Mutex
	cond     *sync.Cond
	admitted int // chunks below this may be decoded: next + window
	stopped  bool
}

type colMsg struct {
	ch  *runstream.Chunk
	err error
}

// chunksPerWorker sizes the delivery ring per worker: how many decoded
// chunks may sit between the claim frontier and the consumer before
// claimants wait for admission.
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
	s := &columnSource{lo: lo, hi: hi, next: lo}
	s.cond = sync.NewCond(&s.mu)
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
	s.slots = make([]chan colMsg, window)
	for i := range s.slots {
		s.slots[i] = make(chan colMsg, 1)
	}
	s.admitted = lo + window
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
		if c >= s.hi || !s.admit(c) {
			return
		}
		var msg colMsg
		msg.ch, msg.err = s.decodeChunk(ctx, ir, dec, &buf, c)
		// Never blocks: admission means the slot's previous occupant
		// has been consumed.
		s.slots[(c-s.lo)%len(s.slots)] <- msg
		if msg.err != nil {
			// The consumer sees the error at this chunk's ordered
			// position and stops the source; don't claim past it.
			return
		}
	}
}

// admit waits until chunk c may be decoded, reporting false if the
// source is stopped first.
func (s *columnSource) admit(c int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c >= s.admitted && !s.stopped {
		s.cond.Wait()
	}
	return !s.stopped
}

// stop releases every worker waiting for admission; it is idempotent.
func (s *columnSource) stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.cond.Broadcast()
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
	msg := <-s.slots[(s.next-s.lo)%len(s.slots)]
	if msg.err != nil {
		s.err = msg.err
		s.stop()
		return nil, nil, msg.err
	}
	s.next++
	s.mu.Lock()
	s.admitted = s.next + len(s.slots) // admit the chunk one window later
	s.mu.Unlock()
	s.cond.Broadcast()
	ch := msg.ch
	release := func() { s.pool.Put(ch) }
	return ch, release, nil
}

// Close implements runstream.Source, stopping the decode workers. It
// is safe to call at any time; in-flight chunks stay valid until their
// release functions run.
func (s *columnSource) Close() {
	s.stop()
	s.wg.Wait()
}
