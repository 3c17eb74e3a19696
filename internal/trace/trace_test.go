package trace

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// testProgram builds a synthetic program large enough to bind the
// random PCs used by the stream tests. Every instruction is class
// Other; the fuzz reference paths use it where classes don't matter.
func testProgram(n int) *isa.Program {
	insts := make([]isa.Inst, n)
	return &isa.Program{Name: "synthetic", Insts: insts}
}

// testProgramMixed builds a program with a deterministic mix of
// instruction classes keyed by PC — loads, stores, conditional and
// unconditional branches among the ALU filler — so recorded streams
// exercise the v4 writer's class-split columns.
func testProgramMixed(n int) *isa.Program {
	insts := make([]isa.Inst, n)
	for pc := range insts {
		switch {
		case pc%7 == 1:
			insts[pc].Op = isa.OpLdq
		case pc%7 == 5:
			insts[pc].Op = isa.OpStq
		case pc%7 == 3:
			insts[pc].Op = isa.OpBeq
		case pc%21 == 6:
			insts[pc].Op = isa.OpBr
		default:
			insts[pc].Op = isa.OpAdd
		}
	}
	return &isa.Program{Name: "synthetic", Insts: insts}
}

// writeTestTrace records n synthetic events through the BatchObserver
// path with a small chunk size so multiple chunks are exercised, and
// returns the encoded bytes plus the events. The generated stream is
// run-representable — targets name the next committed PC and the taken
// and address fields respect each PC's class.
func writeTestTrace(t *testing.T, n, chunk int) ([]byte, []sim.Event, *isa.Program) {
	t.Helper()
	prog := testProgramMixed(1 << 12)
	evs := testEventStream(n, prog)
	var buf bytes.Buffer
	r := rand.New(rand.NewSource(int64(n) + 1))
	tw := NewWriter(&buf, Meta{Program: prog.Name, Size: "test", ChunkEvents: chunk}, prog)
	// Deliver in uneven slabs to exercise partial-chunk accumulation.
	for lo := 0; lo < n; {
		hi := lo + 1 + r.Intn(300)
		if hi > n {
			hi = n
		}
		tw.ObserveBatch(evs[lo:hi])
		lo = hi
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("close writer: %v", err)
	}
	if got := tw.Events(); got != uint64(n) {
		t.Fatalf("writer accepted %d events, want %d", got, n)
	}
	return buf.Bytes(), evs, prog
}

// testEventStream walks prog pseudo-randomly — mostly fallthrough with
// occasional jumps, loads and stores carrying addresses (sometimes
// zero), conditional branches with mixed outcomes — producing a
// run-representable commit stream.
func testEventStream(n int, prog *isa.Program) []sim.Event {
	r := rand.New(rand.NewSource(int64(n)))
	evs := make([]sim.Event, n)
	pc := int32(0)
	for i := range evs {
		ev := sim.Event{Seq: uint64(i), PC: pc, Inst: &prog.Insts[pc]}
		switch isa.ClassOf(prog.Insts[pc].Op) {
		case isa.ClassLoad, isa.ClassStore:
			if r.Intn(8) != 0 {
				ev.Addr = uint64(1 + r.Intn(1<<20))
			}
		case isa.ClassCondBranch:
			ev.Taken = r.Intn(2) == 0
		case isa.ClassUncondBranch:
			ev.Taken = true
		}
		next := pc + 1
		if r.Intn(16) == 0 || int(next) >= len(prog.Insts) {
			next = int32(r.Intn(len(prog.Insts)))
		}
		ev.Target = next
		evs[i] = ev
		pc = next
	}
	return evs
}

func drain(t *testing.T, src *Source) []sim.Event {
	t.Helper()
	var all []sim.Event
	for {
		evs, release, err := src.Next()
		if err == io.EOF {
			return all
		}
		if err != nil {
			t.Fatalf("source: %v", err)
		}
		all = append(all, evs...)
		release()
	}
}

func checkEvents(t *testing.T, got, want []sim.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// openTest opens an in-memory trace through its footer index.
func openTest(t *testing.T, data []byte) *IndexedReader {
	t.Helper()
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	return ir
}

func TestStreamRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 5000} {
		data, evs, prog := writeTestTrace(t, n, 256)
		ir := openTest(t, data)
		if ir.Meta().Program != "synthetic" || ir.Meta().Size != "test" {
			t.Fatalf("n=%d: meta %+v", n, ir.Meta())
		}
		src := ir.Range(prog, 0, ir.Chunks())
		got := drain(t, src)
		src.Close()
		checkEvents(t, got, evs)
		if ir.TotalEvents() != uint64(n) {
			t.Fatalf("n=%d: TotalEvents=%d", n, ir.TotalEvents())
		}
	}
}

// TestParallelStreamRoundTrip decodes the same trace through the
// work-claiming column pool at several worker counts: delivery must
// stay in commit order and every column must match the recorded
// events.
func TestParallelStreamRoundTrip(t *testing.T) {
	data, evs, prog := writeTestTrace(t, 10000, 128)
	ir := openTest(t, data)
	for _, workers := range []int{1, 2, 4} {
		checkColumns(t, ir.Columns(context.Background(), prog, 0, ir.Chunks(), workers), evs, prog)
	}
}

// TestParallelSourceEarlyClose closes a column pool with most chunks
// undelivered: it must not deadlock waiting on blocked workers.
func TestParallelSourceEarlyClose(t *testing.T) {
	data, _, prog := writeTestTrace(t, 20000, 64)
	ir := openTest(t, data)
	src := ir.Columns(context.Background(), prog, 0, ir.Chunks(), 4)
	_, release, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	release()
	src.Close()
}

// replayAll opens and decodes data fully, returning an error instead
// of failing, for the corruption sweeps.
func replayAll(data []byte, prog *isa.Program) error {
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err
	}
	src := ir.Range(prog, 0, ir.Chunks())
	defer src.Close()
	for {
		_, release, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		release()
	}
}

func TestTruncatedTraceRejected(t *testing.T) {
	data, _, prog := writeTestTrace(t, 2000, 256)
	if err := replayAll(data, prog); err != nil {
		t.Fatalf("pristine trace rejected: %v", err)
	}
	for n := 0; n < len(data); n++ {
		if err := replayAll(data[:n], prog); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
	}
}

func TestBitFlippedTraceRejected(t *testing.T) {
	data, _, prog := writeTestTrace(t, 2000, 256)
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte{}, data...)
		mut[r.Intn(len(mut))] ^= 1 << r.Intn(8)
		if bytes.Equal(mut, data) {
			continue
		}
		if err := replayAll(mut, prog); err == nil {
			t.Fatalf("trial %d: bit-flipped trace accepted", trial)
		}
	}
}

func TestDecodeRejectsOutOfRangePC(t *testing.T) {
	data, _, _ := writeTestTrace(t, 100, 64)
	small := testProgram(1) // every PC > 0 is out of range
	if err := replayAll(data, small); err == nil {
		t.Fatal("replay against too-small program accepted")
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	hm := headerMagic(FormatVersion)
	for _, data := range [][]byte{
		nil,
		[]byte("BOGUSMAG"),
		[]byte("BPTRACE9"),
		[]byte("BPTRACE0"),
		hm[:],
	} {
		if _, err := NewIndexedReader(bytes.NewReader(data), int64(len(data))); err == nil {
			t.Fatalf("header %q accepted", data)
		}
	}
}
