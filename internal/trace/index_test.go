package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
)

// TestIndexedReaderRoundTrip opens a multi-chunk trace through the
// footer index and checks that every chunk range decodes to exactly the
// events the index promises, including single-chunk and full-file
// ranges.
func TestIndexedReaderRoundTrip(t *testing.T) {
	const n, chunk = 10000, 256
	data, evs, prog := writeTestTrace(t, n, chunk)
	ir := openTest(t, data)
	if ir.Meta().Program != "synthetic" {
		t.Fatalf("meta %+v", ir.Meta())
	}
	if ir.TotalEvents() != n {
		t.Fatalf("TotalEvents=%d, want %d", ir.TotalEvents(), n)
	}
	wantChunks := (n + chunk - 1) / chunk
	if ir.Chunks() != wantChunks {
		t.Fatalf("Chunks=%d, want %d", ir.Chunks(), wantChunks)
	}
	// Full-file range reproduces the stream.
	ctx := context.Background()
	checkColumns(t, ir.Columns(ctx, prog, 0, ir.Chunks(), 1), evs, prog)
	// Disjoint sub-ranges cover the trace without overlap or gaps.
	for _, split := range []int{1, 7, ir.Chunks() - 1} {
		lo := ir.Base(split)
		checkColumns(t, ir.Columns(ctx, prog, 0, split, 1), evs[:lo], prog)
		checkColumns(t, ir.Columns(ctx, prog, split, ir.Chunks(), 1), evs[lo:], prog)
	}
}

// TestIndexedReaderRejectsCorruptFooter flips bits across the footer
// region and truncates the file; every mutation must be detected at
// open or at decode, never silently accepted.
func TestIndexedReaderRejectsCorruptFooter(t *testing.T) {
	data, _, prog := writeTestTrace(t, 2000, 256)
	openAndDrain := func(b []byte) error {
		ir, err := NewIndexedReader(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			return err
		}
		recs, err := readColumns(ir, prog, 0, ir.Chunks(), 1)
		if err != nil {
			return err
		}
		if uint64(len(recs)) != ir.TotalEvents() {
			t.Fatalf("drained %d events, index records %d", len(recs), ir.TotalEvents())
		}
		return nil
	}
	if err := openAndDrain(data); err != nil {
		t.Fatalf("pristine trace rejected: %v", err)
	}
	// The footer (terminator + index + tail) is everything after the
	// last frame; flipping any single bit in it must fail validation.
	footerStart := len(data) - tailFixedLen - 80
	if footerStart < 0 {
		footerStart = 0
	}
	for off := footerStart; off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte{}, data...)
			mut[off] ^= 1 << bit
			if err := openAndDrain(mut); err == nil {
				t.Fatalf("bit flip at offset %d bit %d accepted", off, bit)
			}
		}
	}
	for cut := 1; cut <= tailFixedLen+8; cut++ {
		if err := openAndDrain(data[:len(data)-cut]); err == nil {
			t.Fatalf("truncation by %d bytes accepted", cut)
		}
	}
}

// TestIndexedReaderRetiredFormat opens handcrafted v1, v2 and v3
// headers (the writers that produced them are gone): each must fail
// with ErrRetiredFormat and a message that says to re-record, while a
// damaged current-format file fails with a different error.
func TestIndexedReaderRetiredFormat(t *testing.T) {
	for v := 1; v < FormatVersion; v++ {
		meta := []byte(`{"program":"hmmsearch","chunk_events":16384,"compression":"flate"}`)
		magic := headerMagic(v)
		data := append([]byte{}, magic[:]...)
		data = binary.AppendUvarint(data, uint64(len(meta)))
		data = append(data, meta...)
		data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(meta))
		data = append(data, 0) // terminator: an empty data section
		_, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
		if !errors.Is(err, ErrRetiredFormat) {
			t.Fatalf("v%d: err=%v, want ErrRetiredFormat", v, err)
		}
		if !strings.Contains(err.Error(), "re-record") {
			t.Errorf("v%d: message %q does not say to re-record", v, err)
		}
	}
	data, _, _ := writeTestTrace(t, 100, 64)
	data = data[:len(data)-1]
	if _, err := NewIndexedReader(bytes.NewReader(data), int64(len(data))); err == nil || errors.Is(err, ErrRetiredFormat) {
		t.Fatalf("truncated current-format trace: err=%v, want a non-retired error", err)
	}
}

// TestChunkBoundaryGoldens pins the writer/reader behavior at the
// awkward sizes: an event count that is an exact multiple of the chunk
// capacity (no partial final chunk), a single full chunk, and the
// empty trace.
func TestChunkBoundaryGoldens(t *testing.T) {
	for _, tc := range []struct {
		n, chunk   int
		wantChunks int
	}{
		{256, 256, 1},  // exactly one full chunk
		{1024, 256, 4}, // exact multiple, no partial tail chunk
		{0, 256, 0},    // empty trace: header + footer only
	} {
		data, evs, prog := writeTestTrace(t, tc.n, tc.chunk)
		ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("n=%d: indexed open: %v", tc.n, err)
		}
		if ir.TotalEvents() != uint64(tc.n) {
			t.Fatalf("n=%d: TotalEvents=%d", tc.n, ir.TotalEvents())
		}
		if ir.Chunks() != tc.wantChunks {
			t.Fatalf("n=%d chunk=%d: Chunks=%d, want %d", tc.n, tc.chunk, ir.Chunks(), tc.wantChunks)
		}
		ctx := context.Background()
		checkColumns(t, ir.Columns(ctx, prog, 0, ir.Chunks(), 1), evs, prog)
		// The last chunk alone decodes to the stream's tail.
		if tc.wantChunks > 0 {
			last := ir.Chunks() - 1
			checkColumns(t, ir.Columns(ctx, prog, last, ir.Chunks(), 1), evs[ir.Base(last):], prog)
		}
	}
}
