package trace

import (
	"testing"

	"bioperfload/internal/runstream"
)

func BenchmarkDecodeChunkColumns(b *testing.B) {
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
	if err := dict.bindShared(prog); err != nil {
		b.Fatal(err)
	}
	var ch runstream.Chunk
	var sc v4Scratch
	b.SetBytes(int64(len(evs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeChunkColumnsV4(data, dict, &ch, &sc); err != nil {
			b.Fatal(err)
		}
	}
}
