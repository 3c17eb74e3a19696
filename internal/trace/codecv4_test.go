package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"sync"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// buildV4Chunk assembles a v4 chunk payload from explicit parts so the
// corruption sweep can lie about any field. The reference layout (for
// testProgramMixed(64), run [0,8) twice): classes inside the run are
// pc1 load, pc3 cond branch, pc5 store, pc6 uncond branch, so nbr=1
// and nmem=2 per repetition.
type v4parts struct {
	base     uint64
	n        uint64
	dictBase uint64
	newRuns  [][2]int64 // {pc, len}; pc is delta-chained at encode
	tokens   [][2]uint64
	final    int64
	bitmap   []byte
	addrs    []int64 // zigzag deltas
	trailing []byte
}

func (p *v4parts) encode() []byte {
	var b []byte
	u := func(v uint64) { b = binary.AppendUvarint(b, v) }
	u(p.base)
	u(p.n)
	u(p.dictBase)
	u(uint64(len(p.newRuns)))
	prev := int64(0)
	for _, r := range p.newRuns {
		u(zigzag(r[0] - prev))
		u(uint64(r[1]))
		prev = r[0]
	}
	u(uint64(len(p.tokens)))
	for _, t := range p.tokens {
		u(t[0])
		u(t[1])
	}
	u(zigzag(p.final))
	b = append(b, p.bitmap...)
	for _, d := range p.addrs {
		u(zigzag(d))
	}
	return append(b, p.trailing...)
}

// validV4Parts is the pristine reference chunk: 16 events, run [0,8)
// repeated twice, all addresses zero, both conditional branches not
// taken, final target 0.
func validV4Parts() v4parts {
	return v4parts{
		n:       16,
		newRuns: [][2]int64{{0, 8}},
		tokens:  [][2]uint64{{0, 2}},
		final:   -8, // last PC 7, target 0
		bitmap:  []byte{0x00},
		addrs:   []int64{0, 0, 0, 0},
	}
}

// TestV4ChunkCorruptionSweep feeds structurally corrupted dictionary
// chunks to the column decoder: every lie — out-of-range run ids, a
// dictBase past the footer dictionary, duplicate or overlapping
// dictionary entries, run lengths that disagree with the chunk's event
// count, runs outside the program, truncated or over-long columns —
// must be rejected with an error, never a panic or a silent mis-decode.
// Each corrupted chunk is decoded against the pristine footer
// dictionary and against a footer built from the chunk's own entries
// (the dictionary a writer of exactly those entries would have left).
func TestV4ChunkCorruptionSweep(t *testing.T) {
	prog := testProgramMixed(64)

	// decode runs the column decoder against a fresh footer dictionary
	// of the given runs; it reports whether it accepted the payload.
	decode := func(runs []dictRun, payload []byte) bool {
		dict, err := parseDictPayload(appendDictPayload(nil, runs))
		if err != nil {
			return false // the footer itself is invalid
		}
		if err := dict.bindShared(prog); err != nil {
			return false
		}
		var sc v4Scratch
		return decodeChunkColumnsV4(payload, dict, new(runstream.Chunk), &sc) == nil
	}
	pristine := []dictRun{{pc: 0, n: 8}}
	base := validV4Parts()
	if !decode(pristine, base.encode()) {
		t.Fatalf("pristine reference chunk rejected")
	}

	cases := []struct {
		name string
		mut  func(p *v4parts)
	}{
		{"token id out of dictionary range", func(p *v4parts) { p.tokens = [][2]uint64{{1, 2}} }},
		{"adjacent tokens share an id", func(p *v4parts) { p.tokens = [][2]uint64{{0, 1}, {0, 1}} }},
		{"zero repeat count", func(p *v4parts) { p.tokens = [][2]uint64{{0, 0}} }},
		{"token stream overruns event count", func(p *v4parts) { p.tokens = [][2]uint64{{0, 3}} }},
		{"token stream undershoots event count", func(p *v4parts) { p.tokens = [][2]uint64{{0, 1}} }},
		{"dictBase past the footer dictionary", func(p *v4parts) { p.dictBase = 1 }},
		{"duplicate dictionary entry", func(p *v4parts) {
			p.newRuns = [][2]int64{{0, 8}, {0, 8}}
		}},
		{"zero-length dictionary run", func(p *v4parts) { p.newRuns = [][2]int64{{0, 8}, {9, 0}} }},
		{"run outside the program", func(p *v4parts) {
			// Structurally fine (60+8 < 2^31) but past the 64-inst
			// program: the bind step must reject it.
			p.newRuns = [][2]int64{{60, 8}}
		}},
		{"chunk entry disagrees with the footer", func(p *v4parts) {
			p.newRuns = [][2]int64{{0, 7}}
			p.n = 14
			p.final = -7
			p.addrs = p.addrs[:2]
		}},
		{"final target out of int32 range", func(p *v4parts) { p.final = 1 << 40 }},
		{"truncated taken bitmap", func(p *v4parts) { p.bitmap, p.addrs = nil, nil }},
		{"nonzero bitmap padding", func(p *v4parts) { p.bitmap = []byte{0xF0} }},
		{"truncated address column", func(p *v4parts) { p.addrs = p.addrs[:2] }},
		{"trailing bytes", func(p *v4parts) { p.trailing = []byte{0} }},
		{"event count zero", func(p *v4parts) { p.n = 0 }},
		{"newRuns exceeds event count", func(p *v4parts) {
			p.dictBase = 0
			p.n = 1
			p.newRuns = [][2]int64{{0, 1}, {2, 1}}
			p.tokens = [][2]uint64{{0, 1}}
			p.final = 0
			p.bitmap, p.addrs = nil, nil
		}},
	}
	for _, tc := range cases {
		p := validV4Parts()
		tc.mut(&p)
		payload := p.encode()
		if decode(pristine, payload) {
			t.Errorf("%s: accepted against the pristine footer dictionary", tc.name)
		}
		own := make([]dictRun, 0, int(p.dictBase)+len(p.newRuns))
		for i := uint64(0); i < p.dictBase; i++ {
			own = append(own, dictRun{pc: 63 - int32(i), n: 1}) // filler ids below dictBase
		}
		for _, r := range p.newRuns {
			own = append(own, dictRun{pc: int32(r[0]), n: int32(r[1])})
		}
		if decode(own, payload) {
			t.Errorf("%s: accepted against a footer of the chunk's own entries", tc.name)
		}
	}

	// The footer dictionary gets the same entry validation.
	if _, err := parseDictPayload(appendDictPayload(nil, []dictRun{{0, 8}, {0, 8}})); err == nil {
		t.Error("footer dictionary with a duplicate entry accepted")
	}
	if _, err := parseDictPayload(appendDictPayload(nil, []dictRun{{0, 0}})); err == nil {
		t.Error("footer dictionary with a zero-length run accepted")
	}
}

// TestV4RoundTripByteIdentity decodes a trace split across several
// concurrent column readers and re-encodes the decoded stream: the
// decoded events must match the originals exactly and the re-encoded
// file must be byte-identical, at every worker count.
func TestV4RoundTripByteIdentity(t *testing.T) {
	const n, chunk = 20000, 512
	data, evs, prog := writeTestTrace(t, n, chunk)
	ir := openTest(t, data)
	for _, workers := range []int{1, 4, 8} {
		parts := make([][]Record, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := ir.Chunks()*w/workers, ir.Chunks()*(w+1)/workers
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				parts[w], errs[w] = readColumns(ir, prog, lo, hi, 1)
			}(w)
		}
		wg.Wait()
		var recs []Record
		for w := range parts {
			if errs[w] != nil {
				t.Fatalf("workers=%d: range %d: %v", workers, w, errs[w])
			}
			recs = append(recs, parts[w]...)
		}
		// Rebuild the events: each target is the next committed PC;
		// the column form does not carry the stream's final target.
		got := make([]sim.Event, len(recs))
		for i, r := range recs {
			got[i] = sim.Event{Seq: uint64(i), PC: r.PC, Inst: &prog.Insts[r.PC], Addr: r.Addr, Taken: r.Taken}
			if i > 0 {
				got[i-1].Target = r.PC
			}
		}
		if len(got) > 0 {
			got[len(got)-1].Target = evs[len(evs)-1].Target
		}
		checkEvents(t, got, evs)

		var buf bytes.Buffer
		tw := NewWriter(&buf, Meta{Program: prog.Name, Size: "test", ChunkEvents: chunk}, prog)
		tw.ObserveBatch(got)
		if err := tw.Close(); err != nil {
			t.Fatalf("workers=%d: re-encode: %v", workers, err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("workers=%d: re-encoded trace is not byte-identical (%d vs %d bytes)",
				workers, buf.Len(), len(data))
		}
	}
}

// TestScanRunTokensCompresses pins the point of the token scan: on a
// loop-dominated trace the repeats come off the token stream, so the
// scan reports far fewer callbacks than run instances while still
// spanning every event.
func TestScanRunTokensCompresses(t *testing.T) {
	prog := testProgramMixed(256)
	// A tight 16-instruction loop: one run, thousands of repeats.
	n := 16 * 2000
	evs := make([]sim.Event, n)
	for i := range evs {
		pc := int32(i % 16)
		evs[i] = sim.Event{Seq: uint64(i), PC: pc, Inst: &prog.Insts[pc], Target: (pc + 1) % 16}
		switch isa.ClassOf(prog.Insts[pc].Op) {
		case isa.ClassLoad, isa.ClassStore:
			evs[i].Addr = uint64(0x100 + i)
		case isa.ClassCondBranch:
			evs[i].Taken = i%3 == 0
		case isa.ClassUncondBranch:
			evs[i].Taken = true
		}
	}
	var buf bytes.Buffer
	tw := NewWriter(&buf, Meta{Program: prog.Name, ChunkEvents: 4096}, prog)
	tw.ObserveBatch(evs)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	calls, span, maxRep := 0, int64(0), int64(0)
	err = ir.ScanRunTokens(context.Background(), prog, 0, ir.Chunks(), func(pc, rn int32, rep int64) {
		calls++
		span += int64(rn) * rep
		if rep > maxRep {
			maxRep = rep
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if span != int64(n) {
		t.Fatalf("token scan spans %d events, want %d", span, n)
	}
	if maxRep < 2 {
		t.Fatalf("loop-dominated trace scanned with max repeat %d; token compression is not engaging", maxRep)
	}
	if calls*16 >= n {
		t.Fatalf("token scan made %d callbacks for %d events; repeats are being expanded", calls, n)
	}
}
