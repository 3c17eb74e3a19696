package trace

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// scanPCs expands the run tokens ScanRunTokens reports over chunks
// [lo, hi) into the PC sequence they stand for.
func scanPCs(ctx context.Context, ir *IndexedReader, prog *isa.Program, lo, hi int) ([]int32, error) {
	var pcs []int32
	err := ir.ScanRunTokens(ctx, prog, lo, hi, func(pc, n int32, rep int64) {
		if n <= 0 || rep <= 0 {
			panic(fmt.Sprintf("ScanRunTokens(%d,%d): empty run (pc %d, n %d, rep %d)", lo, hi, pc, n, rep))
		}
		for ; rep > 0; rep-- {
			for i := int32(0); i < n; i++ {
				pcs = append(pcs, pc+i)
			}
		}
	})
	return pcs, err
}

// TestScanPCRunsMatchesRange pins the token-only scan to the recorded
// stream: expanding the PC runs ScanRunTokens reports over a chunk
// range must reproduce, event for event, the PCs recorded there — over
// the whole file and over sub-ranges that start and end mid-stream.
func TestScanPCRunsMatchesRange(t *testing.T) {
	const n, chunk = 10000, 256
	data, evs, prog := writeTestTrace(t, n, chunk)
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, rng := range [][2]int{
		{0, ir.Chunks()},
		{0, 1},
		{3, 9},
		{ir.Chunks() - 1, ir.Chunks()},
		{5, 5},
	} {
		lo, hi := rng[0], rng[1]
		got, err := scanPCs(ctx, ir, prog, lo, hi)
		if err != nil {
			t.Fatalf("ScanRunTokens(%d,%d): %v", lo, hi, err)
		}
		start, end := int(ir.Base(lo)), n
		if hi < ir.Chunks() {
			end = int(ir.Base(hi))
		}
		if lo == hi {
			end = start
		}
		want := evs[start:end]
		if len(got) != len(want) {
			t.Fatalf("ScanRunTokens(%d,%d): %d events, want %d", lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i].PC {
				t.Fatalf("ScanRunTokens(%d,%d): event %d PC=%d, want %d", lo, hi, i, got[i], want[i].PC)
			}
		}
	}
}

// TestWriterEmitsSplitFrames pins the frame kind the writer produces:
// when compression wins, chunks must use the split encoding (the token
// stream as its own flate stream), since that is what lets
// ScanRunTokens skip decompressing the taken and address columns. A
// silent fallback to whole-chunk flate would keep every test green but
// forfeit the scan speedup. The recorded stream is loopy, like real kernels, so its
// chunks genuinely compress; tiny high-entropy test chunks
// legitimately store as compressionNone instead.
func TestWriterEmitsSplitFrames(t *testing.T) {
	prog := testProgramMixed(256)
	var buf bytes.Buffer
	tw := NewWriter(&buf, Meta{Program: prog.Name, Size: "test"}, prog)
	batch := make([]sim.Event, 512)
	seq := uint64(0)
	for rep := 0; rep < 80; rep++ { // ~40k events, 2+ full-size chunks
		for i := range batch {
			pc := int32(i % 128)
			ev := sim.Event{Seq: seq, PC: pc, Inst: &prog.Insts[pc], Target: (pc + 1) % 128}
			switch isa.ClassOf(prog.Insts[pc].Op) {
			case isa.ClassLoad, isa.ClassStore:
				// Strided addresses: per-site deltas repeat, so the
				// address column genuinely compresses.
				ev.Addr = uint64(0x10000 + int(pc)<<4 + (rep%16)<<10)
			case isa.ClassCondBranch:
				ev.Taken = rep%3 == 0
			case isa.ClassUncondBranch:
				ev.Taken = true
			}
			batch[i] = ev
			seq++
		}
		tw.ObserveBatch(batch)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var frameBuf []byte
	split := 0
	for chunk := 0; chunk < ir.Chunks(); chunk++ {
		f, err := ir.chunkFrame(chunk, &frameBuf)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		switch f.kind {
		case compressionSplit:
			split++
		case compressionFlate:
			t.Errorf("chunk %d: writer emitted whole-chunk flate; want split or none", chunk)
		}
	}
	if split == 0 {
		t.Errorf("no chunk of a loopy %d-event trace used split compression", seq)
	}
}

// TestScanPCRunsCancellation checks that a cancelled context stops the
// scan with the context's error.
func TestScanPCRunsCancellation(t *testing.T) {
	data, _, prog := writeTestTrace(t, 2000, 64)
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = ir.ScanRunTokens(ctx, prog, 0, ir.Chunks(), func(pc, n int32, rep int64) {
		t.Fatal("run delivered after cancellation")
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestScanPCRunsRejectsCorruption flips a bit in every byte position
// of the trace and requires the scan to either fail or produce exactly
// the reference PC stream — corruption must never silently skew a
// phase vector.
func TestScanPCRunsRejectsCorruption(t *testing.T) {
	data, evs, prog := writeTestTrace(t, 600, 64)
	want := make([]int32, len(evs))
	for i := range evs {
		want[i] = evs[i].PC
	}
	ctx := context.Background()
	for pos := 0; pos < len(data); pos += 7 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		ir, err := NewIndexedReader(bytes.NewReader(mut), int64(len(mut)))
		if err != nil {
			continue // corruption caught at open
		}
		got, err := scanPCs(ctx, ir, prog, 0, ir.Chunks())
		if err != nil {
			continue // corruption caught during the scan
		}
		if len(got) != len(want) {
			t.Fatalf("byte %d: silent corruption changed event count %d -> %d", pos, len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("byte %d: silent corruption changed PC[%d] %d -> %d", pos, i, want[i], got[i])
			}
		}
	}
}
