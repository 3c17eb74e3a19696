package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// FuzzCodec drives the run-native codec from one input:
//
//  1. The raw bytes are decoded as a chunk payload by the column
//     decoder, against two footer dictionaries: the seed writer's, and
//     one built from the chunk's own entries. It must never panic or
//     accept what parseChunkV4 rejects, and a clean decode must
//     re-encode and decode back to the same records.
//  2. The raw bytes are opened as a whole trace file and read through
//     Columns and ScanRunTokens. Arbitrary input must produce an error
//     or a clean decode — never a panic, never an oversized allocation
//     — and whatever decodes cleanly must agree.
//  3. The bytes are reinterpreted as event streams and recorded: a
//     run-representable stream must round-trip losslessly through every
//     reader; an arbitrary one must either be refused by the writer or
//     round-trip too.
func FuzzCodec(f *testing.F) {
	prog := testProgramMixed(1 << 12)
	seedEvs := simEventsFromBytes(prog, seedStreamBytes())

	// Chunk seeds: a first chunk that defines its runs, and a follow-on
	// chunk that references them by id. The writer's final dictionary
	// is the footer the chunk-level direction decodes against.
	vw := newV4Writer(prog)
	first, _, err := vw.appendChunk(nil, 0, recordsOf(seedEvs))
	if err != nil {
		f.Fatal(err)
	}
	second, _, err := vw.appendChunk(nil, uint64(len(seedEvs)), recordsOf(seedEvs[:len(seedEvs)/2]))
	if err != nil {
		f.Fatal(err)
	}
	seedDict := vw.dict.runs

	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add(first)
	f.Add(second)
	f.Add(recordTrace(f, prog, seedEvs, Meta{Program: "fuzz", ChunkEvents: 8}))
	f.Add(recordTrace(f, prog, seedEvs, Meta{Program: "fuzz", ChunkEvents: 8, Compression: "none"}))
	f.Add(recordTrace(f, prog, loopEvents(prog, 16, 64), Meta{Program: "fuzz", ChunkEvents: 256}))
	f.Add(recordTrace(f, prog, nil, Meta{Program: "fuzz"}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: arbitrary bytes as a chunk payload.
		checkChunkDecoder(t, prog, data, seedDict)
		if own := chunkOwnRuns(data); own != nil {
			checkChunkDecoder(t, prog, data, own)
		}

		// Direction 2: arbitrary bytes as a whole trace file.
		checkTraceReaders(t, prog, data, nil)

		// Direction 3a: bytes -> run-representable stream -> record ->
		// every reader; the round trip must be lossless.
		evs := simEventsFromBytes(prog, data)
		checkTraceReaders(t, prog, recordTrace(t, prog, evs, Meta{Program: "fuzz", ChunkEvents: 16}), evs)

		// Direction 3b: bytes -> arbitrary stream. The writer refuses
		// what it cannot represent; what it accepts must round-trip.
		evs = eventsFromBytes(data)
		var buf bytes.Buffer
		w := NewWriter(&buf, Meta{Program: "fuzz", ChunkEvents: 16}, prog)
		w.ObserveBatch(evs)
		if w.Close() == nil {
			checkTraceReaders(t, prog, buf.Bytes(), evs)
		}
	})
}

// checkChunkDecoder decodes data as one chunk payload through the
// column decoder against a footer dictionary of runs (when that
// dictionary is itself valid and fits prog). A clean decode must pass
// parseChunkV4 and expand consistently, and the events it stands for
// must re-encode with a fresh writer into a chunk that decodes back to
// the same records.
func checkChunkDecoder(t *testing.T, prog *isa.Program, data []byte, runs []dictRun) {
	dict, err := parseDictPayload(appendDictPayload(nil, runs))
	if err != nil || dict.bindShared(prog) != nil {
		return
	}
	var sc v4Scratch
	var ch runstream.Chunk
	if decodeChunkColumnsV4(data, dict, &ch, &sc) != nil {
		return
	}
	h, err := parseChunkV4(data, dict, &sc)
	if err != nil {
		t.Fatalf("column decoder accepted a chunk parseChunkV4 rejects: %v", err)
	}
	recs, err := expandChunk(nil, &ch, prog)
	if err != nil {
		t.Fatalf("clean column decode does not expand: %v", err)
	}

	// Rebuild the events: each target is the next PC, and the chunk's
	// final target comes from its header.
	evs := make([]sim.Event, len(recs))
	for i, r := range recs {
		evs[i] = sim.Event{Seq: ch.Base + uint64(i), PC: r.PC, Inst: &prog.Insts[r.PC], Addr: r.Addr, Taken: r.Taken}
		if i > 0 {
			evs[i-1].Target = r.PC
		}
	}
	last := &evs[len(evs)-1]
	last.Target = int32(int64(last.PC) + 1 + h.finalDelta)

	vw := newV4Writer(prog)
	re, _, err := vw.appendChunk(nil, ch.Base, recordsOf(evs))
	if err != nil {
		t.Fatalf("re-encode of decoded chunk failed: %v", err)
	}
	redict, err := parseDictPayload(appendDictPayload(nil, vw.dict.runs))
	if err != nil || redict.bindShared(prog) != nil {
		t.Fatalf("re-encoded dictionary does not load: %v", err)
	}
	var ch2 runstream.Chunk
	recs2, err := decodeColumns(re, prog, redict, &ch2)
	if err != nil {
		t.Fatalf("re-decode of re-encoded chunk failed: %v", err)
	}
	if ch2.Base != ch.Base {
		t.Fatalf("re-decoded base %d, want %d", ch2.Base, ch.Base)
	}
	checkRecords(t, recs2, evs)
}

// chunkOwnRuns returns the dictionary a writer of exactly data's chunk
// would have left behind: filler entries for the ids below the chunk's
// dictBase, then the entries it defines. It returns nil when the
// header does not parse or claims an implausibly large dictionary.
func chunkOwnRuns(data []byte) []dictRun {
	var vals [4]uint64
	pos := 0
	for i := range vals {
		u, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil
		}
		vals[i], pos = u, pos+n
	}
	dictBase, newRuns := vals[2], vals[3]
	if dictBase > 256 || newRuns > 256 {
		return nil
	}
	runs := make([]dictRun, 0, dictBase+newRuns)
	for i := uint64(0); i < dictBase; i++ {
		runs = append(runs, dictRun{pc: int32(4095 - i), n: 1})
	}
	prev := int64(0)
	for i := uint64(0); i < newRuns; i++ {
		u, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil
		}
		pos += n
		pc := prev + unzigzag(u)
		l, n := binary.Uvarint(data[pos:])
		if n <= 0 || pc < 0 || pc >= 1<<31 || l > maxChunkEvents {
			return nil
		}
		pos += n
		runs = append(runs, dictRun{pc: int32(pc), n: int32(l)})
		prev = pc
	}
	return runs
}

// checkTraceReaders opens data as a trace file and reads it through
// Columns and ScanRunTokens. With want == nil the input is arbitrary:
// either reader may reject it, and when both decode it cleanly they
// must agree. With want set, both must reproduce it.
func checkTraceReaders(t *testing.T, prog *isa.Program, data []byte, want []sim.Event) {
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		if want != nil {
			t.Fatalf("open recorded trace: %v", err)
		}
		return
	}
	recs, err := readColumns(ir, prog, 0, ir.Chunks(), 2)
	if err != nil {
		if want != nil {
			t.Fatalf("column decode of recorded trace: %v", err)
		}
		return
	}
	if want != nil {
		checkRecords(t, recs, want)
	}

	pcs, err := scanPCs(context.Background(), ir, prog, 0, ir.Chunks())
	if err != nil {
		if want != nil {
			t.Fatalf("token scan of recorded trace: %v", err)
		}
		return
	}
	if len(pcs) != len(recs) {
		t.Fatalf("token scan covers %d events, column decode %d", len(pcs), len(recs))
	}
	for i := range pcs {
		if pcs[i] != recs[i].PC {
			t.Fatalf("token scan event %d: pc %d, column decode %d", i, pcs[i], recs[i].PC)
		}
	}
}

// recordTrace records evs with a fresh writer and returns the file.
func recordTrace(tb testing.TB, prog *isa.Program, evs []sim.Event, meta Meta) []byte {
	tb.Helper()
	var buf bytes.Buffer
	tw := NewWriter(&buf, meta, prog)
	tw.ObserveBatch(evs)
	if err := tw.Close(); err != nil {
		tb.Fatalf("record trace: %v", err)
	}
	return buf.Bytes()
}

// loopEvents is reps iterations of a tight body-instruction loop over
// prog's first PCs: one dictionary run repeated, the shape that
// exercises token repeats and split compression.
func loopEvents(prog *isa.Program, body, reps int) []sim.Event {
	evs := make([]sim.Event, body*reps)
	for i := range evs {
		pc := int32(i % body)
		ev := sim.Event{Seq: uint64(i), PC: pc, Inst: &prog.Insts[pc], Target: (pc + 1) % int32(body)}
		switch isa.ClassOf(prog.Insts[pc].Op) {
		case isa.ClassLoad, isa.ClassStore:
			ev.Addr = uint64(0x1000 + 8*i)
		case isa.ClassCondBranch:
			ev.Taken = i%3 == 0
		case isa.ClassUncondBranch:
			ev.Taken = true
		}
		evs[i] = ev
	}
	return evs
}

// seedStreamBytes is a fixed byte string long enough for
// simEventsFromBytes to cross several chunk boundaries in the seeds.
func seedStreamBytes() []byte {
	b := make([]byte, 120)
	for i := range b {
		b[i] = byte(i*37 + 11)
	}
	return b
}

// recordsOf converts decoded events back to writer records.
func recordsOf(evs []sim.Event) []Record {
	recs := make([]Record, len(evs))
	for i, ev := range evs {
		recs[i] = Record{PC: ev.PC, Target: ev.Target, Addr: ev.Addr, Taken: ev.Taken}
	}
	return recs
}

// simEventsFromBytes deterministically shreds bytes into a
// run-representable event stream bound to prog: every non-final target
// names the next committed PC, and the taken and address fields
// respect each PC's class.
func simEventsFromBytes(prog *isa.Program, data []byte) []sim.Event {
	var evs []sim.Event
	ni := int32(len(prog.Insts))
	pc := int32(0)
	for i := 0; len(data) >= 3; i++ {
		b0, b1, b2 := data[0], data[1], data[2]
		data = data[3:]
		ev := sim.Event{Seq: uint64(i), PC: pc, Inst: &prog.Insts[pc]}
		switch isa.ClassOf(prog.Insts[pc].Op) {
		case isa.ClassLoad, isa.ClassStore:
			ev.Addr = uint64(b1)<<8 | uint64(b2)
		case isa.ClassCondBranch:
			ev.Taken = b1&1 == 1
		case isa.ClassUncondBranch:
			ev.Taken = true
		}
		next := pc + 1
		if b0&7 == 0 || next >= ni {
			next = int32(uint32(b1)<<8|uint32(b2)) % ni
		}
		ev.Target = next
		evs = append(evs, ev)
		pc = next
	}
	return evs
}

// eventsFromBytes deterministically shreds bytes into an arbitrary
// event slab — PCs, targets and flags need not be consistent with any
// program — so the fuzzer explores what the writer must refuse.
func eventsFromBytes(data []byte) []sim.Event {
	var evs []sim.Event
	for len(data) >= 12 {
		pc := int32(binary.LittleEndian.Uint32(data))
		target := int32(binary.LittleEndian.Uint32(data[4:]))
		addr := uint64(binary.LittleEndian.Uint32(data[8:]))
		evs = append(evs, sim.Event{
			PC:     pc,
			Target: target,
			Addr:   addr,
			Taken:  data[8]&1 == 1,
		})
		data = data[12:]
	}
	return evs
}
