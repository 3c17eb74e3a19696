package trace

import (
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// encodeChunk encodes evs as one chunk with a fresh writer and returns
// the payload plus the writer's dictionary, loaded the way an indexed
// reader loads the footer copy and bound to the stream's program.
func encodeChunk(t *testing.T, base uint64, evs []sim.Event) ([]byte, *v4Dict) {
	t.Helper()
	prog := testProgramMixed(1 << 12)
	vw := newV4Writer(prog)
	data, _, err := vw.appendChunk(nil, base, recordsOf(evs))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dict, err := parseDictPayload(appendDictPayload(nil, vw.dict.runs))
	if err != nil {
		t.Fatalf("footer dictionary: %v", err)
	}
	if err := dict.bindShared(prog); err != nil {
		t.Fatalf("bind: %v", err)
	}
	return data, dict
}

// decodeColumns decodes one chunk payload through the column decoder
// into ch and expands it to records.
func decodeColumns(data []byte, prog *isa.Program, dict *v4Dict, ch *runstream.Chunk) ([]Record, error) {
	var sc v4Scratch
	if err := decodeChunkColumnsV4(data, dict, ch, &sc); err != nil {
		return nil, err
	}
	return expandChunk(nil, ch, prog)
}

// TestChunkRoundTrip encodes run-representable streams of awkward
// lengths, and a tight loop whose tokens repeat, at several base
// sequence numbers and decodes each chunk back to exactly the recorded
// PCs, branch outcomes and addresses.
func TestChunkRoundTrip(t *testing.T) {
	prog := testProgramMixed(1 << 12)
	var streams [][]sim.Event
	for _, n := range []int{1, 7, 8, 9, 1000, ChunkEvents} {
		streams = append(streams, testEventStream(n, prog))
	}
	streams = append(streams, loopEvents(prog, 16, 64))
	for _, evs := range streams {
		n := len(evs)
		for _, base := range []uint64{0, 1, 1 << 40} {
			data, dict := encodeChunk(t, base, evs)
			var ch runstream.Chunk
			got, err := decodeColumns(data, prog, dict, &ch)
			if err != nil {
				t.Fatalf("n=%d base %d: decode: %v", n, base, err)
			}
			if ch.Base != base || ch.N != n {
				t.Fatalf("n=%d: base %d n %d, want base %d", n, ch.Base, ch.N, base)
			}
			checkRecords(t, got, evs)
		}
	}
}

// TestChunkDecodeRecyclesBuffer decodes a small chunk into the column
// buffers a larger one left behind: the decode must reuse them and
// still yield exactly the small chunk.
func TestChunkDecodeRecyclesBuffer(t *testing.T) {
	prog := testProgramMixed(1 << 12)
	big, bigDict := encodeChunk(t, 0, testEventStream(500, prog))
	small := testEventStream(20, prog)
	smallData, smallDict := encodeChunk(t, 0, small)
	var ch runstream.Chunk
	if _, err := decodeColumns(big, prog, bigDict, &ch); err != nil {
		t.Fatal(err)
	}
	tokens, addrs := &ch.Tokens[0], &ch.Addrs[0]
	got, err := decodeColumns(smallData, prog, smallDict, &ch)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, got, small)
	if &ch.Tokens[0] != tokens || &ch.Addrs[0] != addrs {
		t.Error("decode did not reuse the chunk's column buffers")
	}
}

func TestChunkDecodeRejectsCorruption(t *testing.T) {
	prog := testProgramMixed(1 << 12)
	buf, dict := encodeChunk(t, 42, testEventStream(100, prog))
	decode := func(data []byte) error {
		_, err := decodeColumns(data, prog, dict, new(runstream.Chunk))
		return err
	}
	if err := decode(buf); err != nil {
		t.Fatalf("pristine chunk rejected: %v", err)
	}

	// Truncation at every prefix length must error, never panic: the
	// token stream must span the claimed event count and the columns
	// must end exactly at the payload's end.
	for n := 0; n < len(buf); n++ {
		if err := decode(buf[:n]); err == nil {
			t.Fatalf("truncated chunk (%d of %d bytes) decoded without error", n, len(buf))
		}
	}

	// Trailing garbage is rejected.
	if err := decode(append(append([]byte{}, buf...), 0)); err == nil {
		t.Error("chunk with trailing byte decoded without error")
	}

	// A hostile record count cannot cause a huge allocation.
	hostile := []byte{0, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if err := decode(hostile); err == nil {
		t.Error("hostile record count decoded without error")
	}
}
