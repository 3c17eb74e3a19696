package trace

import (
	"testing"

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

// TestChunkRoundTrip encodes run-representable streams of awkward
// lengths at several base sequence numbers and decodes each chunk back
// to exactly the recorded events, bound to the program.
func TestChunkRoundTrip(t *testing.T) {
	prog := testProgramMixed(1 << 12)
	for _, n := range []int{1, 7, 8, 9, 1000, ChunkEvents} {
		evs := testEventStream(n, prog)
		for _, base := range []uint64{0, 1, 1 << 40} {
			data, dict := encodeChunk(t, base, evs)
			var sc v4Scratch
			gotBase, got, err := decodeChunkEventsV4(data, prog, dict, nil, &sc)
			if err != nil {
				t.Fatalf("n=%d base %d: decode: %v", n, base, err)
			}
			if gotBase != base {
				t.Fatalf("n=%d: base %d, want %d", n, gotBase, base)
			}
			if len(got) != n {
				t.Fatalf("n=%d: %d events", n, len(got))
			}
			for i := range evs {
				want := evs[i]
				want.Seq = base + uint64(i)
				if got[i] != want {
					t.Fatalf("n=%d base %d event %d: got %+v want %+v", n, base, i, got[i], want)
				}
			}
		}
	}
}

func TestChunkDecodeRecyclesBuffer(t *testing.T) {
	prog := testProgramMixed(1 << 12)
	big, bigDict := encodeChunk(t, 0, testEventStream(500, prog))
	small := testEventStream(20, prog)
	smallData, smallDict := encodeChunk(t, 0, small)
	var sc v4Scratch
	_, evs, err := decodeChunkEventsV4(big, prog, bigDict, nil, &sc)
	if err != nil {
		t.Fatal(err)
	}
	_, evs2, err := decodeChunkEventsV4(smallData, prog, smallDict, evs, &sc)
	if err != nil {
		t.Fatal(err)
	}
	checkEvents(t, evs2, small)
	if &evs2[0] != &evs[0] {
		t.Error("decode did not reuse the provided buffer")
	}
}

func TestChunkDecodeRejectsCorruption(t *testing.T) {
	prog := testProgramMixed(1 << 12)
	buf, dict := encodeChunk(t, 42, testEventStream(100, prog))
	decode := func(data []byte) error {
		var sc v4Scratch
		_, _, err := decodeChunkEventsV4(data, prog, dict, nil, &sc)
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
