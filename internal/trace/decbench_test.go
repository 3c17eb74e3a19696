package trace

import (
	"testing"

	"bioperfload/internal/sim"
)

func BenchmarkDecodeChunkEvents(b *testing.B) {
	prog := testProgramMixed(1 << 12)
	evs := testEventStream(ChunkEvents, prog)
	vw := newV4Writer(prog)
	data, _, err := vw.appendChunk(nil, 0, recordsOf(evs))
	if err != nil {
		b.Fatal(err)
	}
	dict, err := parseDictPayload(appendDictPayload(nil, vw.dict.runs))
	if err != nil {
		b.Fatal(err)
	}
	out := make([]sim.Event, 0, ChunkEvents)
	var sc v4Scratch
	b.SetBytes(int64(len(evs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, got, err := decodeChunkEventsV4(data, prog, dict, out, &sc)
		if err != nil {
			b.Fatal(err)
		}
		out = got[:0]
	}
}
