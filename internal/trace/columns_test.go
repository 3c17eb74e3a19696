package trace

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// checkColumns drains a column source and verifies every column
// against the original event stream.
func checkColumns(t *testing.T, src runstream.Source, evs []sim.Event, prog *isa.Program) {
	t.Helper()
	defer src.Close()
	i := 0
	for {
		ch, release, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("columns: %v", err)
		}
		if want := evs[0].Seq + uint64(i); ch.Base != want {
			t.Fatalf("chunk base %d, want %d", ch.Base, want)
		}
		i = checkChunkV4(t, ch, evs, i, prog)
		release()
	}
	if i != len(evs) {
		t.Fatalf("columns covered %d events, want %d", i, len(evs))
	}
}

// checkChunkV4 verifies one dictionary-backed chunk starting at event
// i and returns the index past it: tokens expand against the shared
// dictionary, BrTaken carries one bit per conditional branch, and
// Addrs one entry per memory event, zero addresses included.
func checkChunkV4(t *testing.T, ch *runstream.Chunk, evs []sim.Event, i int, prog *isa.Program) int {
	t.Helper()
	recs, err := expandChunk(nil, ch, prog)
	if err != nil {
		t.Fatal(err)
	}
	if i+len(recs) > len(evs) {
		t.Fatalf("chunk at %d runs %d events past the stream", ch.Base, i+len(recs)-len(evs))
	}
	checkRecords(t, recs, evs[i:i+len(recs)])
	return i + len(recs)
}

// TestColumnsMatchEvents decodes dictionary-backed chunks at several
// worker counts, including more workers than the claim scheduler's
// ring would otherwise see.
func TestColumnsMatchEvents(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		data, evs, prog := writeTestTrace(t, 5000, 256)
		ir := openTest(t, data)
		src := ir.Columns(context.Background(), prog, 0, ir.Chunks(), workers)
		checkColumns(t, src, evs, prog)
	}
}

// TestColumnsHostilePresent stamps addresses on non-memory events
// (hostile relative to the simulator). The run-native encoding has no
// address slot for them, so the writer must refuse the stream with a
// sticky error rather than drop the addresses silently; the same stream
// without them records and decodes to exactly its columns.
func TestColumnsHostilePresent(t *testing.T) {
	prog := testProgramMixed(1 << 12)
	evs := testEventStream(3000, prog)
	hostile := append([]sim.Event(nil), evs...)
	for i := range hostile {
		if cls := isa.ClassOf(prog.Insts[hostile[i].PC].Op); cls != isa.ClassLoad && cls != isa.ClassStore && i%5 == 0 {
			hostile[i].Addr = uint64(0x1000 + i)
		}
	}
	var buf bytes.Buffer
	tw := NewWriter(&buf, Meta{Program: prog.Name, ChunkEvents: 256}, prog)
	tw.ObserveBatch(hostile)
	if err := tw.Close(); err == nil {
		t.Fatal("writer accepted addresses on non-memory events")
	}
	if tw.Err() == nil {
		t.Fatal("writer error is not sticky")
	}

	buf.Reset()
	tw = NewWriter(&buf, Meta{Program: prog.Name, ChunkEvents: 256}, prog)
	tw.ObserveBatch(evs)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	ir := openTest(t, buf.Bytes())
	checkColumns(t, ir.Columns(context.Background(), prog, 0, ir.Chunks(), 2), evs, prog)
}

func TestColumnsSubrangeAndCancel(t *testing.T) {
	data, evs, prog := writeTestTrace(t, 5000, 256)
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	nc := ir.Chunks()
	if nc < 4 {
		t.Fatalf("want ≥4 chunks, got %d", nc)
	}
	lo, hi := 1, nc-1
	src := ir.Columns(context.Background(), prog, lo, hi, 2)
	checkColumns(t, src, evs[ir.Base(lo):ir.Base(hi)], prog)

	// Close before draining must not deadlock or leak workers.
	src = ir.Columns(context.Background(), prog, 0, nc, 4)
	src.Close()

	// A cancelled context surfaces as an error from Next.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src = ir.Columns(ctx, prog, 0, nc, 2)
	defer src.Close()
	for {
		_, release, err := src.Next()
		if err == io.EOF {
			t.Fatal("cancelled source drained to EOF")
		}
		if err != nil {
			break
		}
		release()
	}
}

// TestColumnsCorruptionDetected flips bytes inside chunk frames and
// requires every mutation to either fail or decode to the same columns
// as the pristine trace (CRC collisions aside, a flip must never be
// silently absorbed into different data).
func TestColumnsCorruptionDetected(t *testing.T) {
	data, evs, prog := writeTestTrace(t, 2000, 256)
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	start := ir.chunks[0].offset
	end := ir.dataEnd
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		mut := bytes.Clone(data)
		pos := start + int64(r.Intn(int(end-start)))
		mut[pos] ^= 1 << r.Intn(8)
		mir, err := NewIndexedReader(bytes.NewReader(mut), int64(len(mut)))
		if err != nil {
			continue // footer/index validation caught it
		}
		if got, err := readColumns(mir, prog, 0, mir.Chunks(), 1); err == nil {
			// Rarely the flip lands in flate padding or round-trips; make
			// sure the decoded columns still match the original events.
			checkRecords(t, got, evs)
		}
	}
}
