package trace

import (
	"encoding/binary"
	"fmt"
	"sync"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
)

// Format v4 is the run-native encoding: the dynamic stream of a
// simulator run is a small static vocabulary of straight-line PC runs
// repeated, so v4 stores the vocabulary once — a trace-wide run
// dictionary, grown chunk by chunk and repeated verbatim in the footer
// — and each chunk becomes a stream of (run-id, repeat) tokens. The
// per-event columns shrink to exactly the bits the program text cannot
// predict: one taken bit per conditional-branch instance and one
// address varint per memory instance (delta-coded per static load/
// store site, where strides make the deltas self-similar). Everything
// else — PCs, targets, classes, the taken flag of unconditional
// branches — is a dictionary lookup, so the column decode the
// block-characterized replay consumes does zero per-event varint work
// outside the address column.
//
// Chunk payload (after the shared uvarint base / uvarint n header):
//
//	uvarint dictBase       dictionary size before this chunk
//	uvarint newRuns        entries this chunk appends
//	newRuns × {
//	    zigzag pcDelta     run start PC, delta-chained within the group
//	    uvarint len        run length (≥ 1)
//	}
//	uvarint nTokens
//	nTokens × {
//	    uvarint runID      < dictBase + newRuns
//	    uvarint rep        ≥ 1; adjacent tokens never share an ID
//	}
//	zigzag finalTargetDelta   last event's Target minus (lastPC + 1)
//	--- split-compression cut ---
//	⌈nbr/8⌉ bytes          taken bitmap over the chunk's conditional-
//	                       branch instances in commit order, where
//	                       nbr = Σ condCount(run) × rep
//	nmem zigzag varints    address deltas, one per memory-class
//	                       instance in commit order, each delta-chained
//	                       against the previous address of the same
//	                       static PC (chains reset to 0 per chunk)
//
// Every other event field is implied: PCs and intra-run targets come
// from the dictionary, run-final targets are the next instance's start
// PC (the explicit finalTargetDelta covers the chunk's last event),
// conditional branches read the bitmap, unconditional branches are
// always taken, and non-branches never are. A stream is representable
// exactly when it satisfies those invariants — which every
// simulator-produced stream does; the writer verifies them and fails
// sticky rather than emit a lossy chunk.
//
// The footer repeats the full dictionary (same pcDelta/len encoding,
// CRC-guarded) so a random-access reader can decode any chunk without
// replaying the prefix that grew the dictionary; chunks then carry
// dictBase + their own entries purely as cross-checks.

// maxDictRuns caps the run-dictionary allocation a corrupted stream
// can request. Real programs intern a few thousand runs.
const maxDictRuns = 1 << 22

// Footer geometry. After the terminator byte the trailer is:
//
//	dict payload:
//	    uvarint runCount
//	    runCount × { zigzag pcDelta, uvarint len }
//	uint32 LE   CRC-32 (IEEE) of the dict payload
//	index payload:
//	    uvarint chunkCount
//	    chunkCount × { uvarint offsetDelta, uvarint events }
//	        offsetDelta: frame-start file offset, delta-coded against
//	        the previous frame start (first entry is absolute)
//	uint32 LE   CRC-32 (IEEE) of the index payload
//	fixed tail (tailLen bytes):
//	    uint64 LE indexLen     length of the index payload in bytes
//	    uint64 LE totalEvents
//	    uint64 LE chunkCount
//	    uint64 LE dictLen      length of the dict payload in bytes
//	uint32 LE   CRC-32 (IEEE) of the fixed tail
//	[8]byte     footer magic "BPTREND4"
//
// The fixed-size suffix (tail + tailCRC + magic = tailFixedLen bytes)
// lets an io.ReaderAt locate the dictionary and index from the end of
// the file.
const (
	tailLen      = 32
	tailFixedLen = tailLen + 4 + 8
)

// dictRun is one run-dictionary entry: the straight-line run
// [pc, pc+n).
type dictRun struct {
	pc int32
	n  int32
}

func dictKey(pc, n int32) uint64 {
	return uint64(uint32(pc))<<32 | uint64(uint32(n))
}

// v4Dict is the reader- and writer-side run dictionary plus the
// class tables derived from the program at bind time. The raw entries
// (runs, ids) are grown by the writer and loaded whole from the footer
// by the indexed reader, structurally validated without a program.
// The bound tables need the program and are built once by bindShared
// before any taken/address column is decoded.
type v4Dict struct {
	runs []dictRun
	ids  map[uint64]int32 // dictKey → id, for duplicate rejection

	// Bound tables (len(runs)+1 entries each): condStart is the
	// running count of conditional branches per run, and memStart
	// indexes memOff, the flat array of each run's memory-instruction
	// offsets. rsDict mirrors runs in the shape runstream consumers
	// share.
	ni        int32
	condStart []int32
	memStart  []int32
	memOff    []int32
	rsDict    *runstream.Dict

	bindOnce sync.Once
	bindErr  error
}

func newV4Dict() *v4Dict {
	return &v4Dict{ids: make(map[uint64]int32)}
}

// add validates and appends one entry, rejecting malformed or
// duplicate runs. It performs only program-independent checks; the
// pc+n ≤ len(prog.Insts) bound is enforced at bind time.
func (d *v4Dict) add(pc int32, n int64) error {
	if n < 1 || n > maxChunkEvents {
		return fmt.Errorf("trace: dictionary run length %d out of range", n)
	}
	if pc < 0 || int64(pc)+n > 1<<31 {
		return fmt.Errorf("trace: dictionary run [%d,%d) out of PC range", pc, int64(pc)+n)
	}
	if len(d.runs) >= maxDictRuns {
		return fmt.Errorf("trace: run dictionary exceeds %d entries", maxDictRuns)
	}
	key := dictKey(pc, int32(n))
	if _, dup := d.ids[key]; dup {
		return fmt.Errorf("trace: duplicate dictionary run [%d,%d)", pc, int64(pc)+n)
	}
	d.ids[key] = int32(len(d.runs))
	d.runs = append(d.runs, dictRun{pc: pc, n: int32(n)})
	return nil
}

// bind builds the class tables over every entry, rejecting runs that
// fall outside prog. Callers go through bindShared.
func (d *v4Dict) bind(prog *isa.Program) error {
	d.ni = int32(len(prog.Insts))
	cls := make([]isa.Class, d.ni)
	for pc := range prog.Insts {
		cls[pc] = isa.ClassOf(prog.Insts[pc].Op)
	}
	d.condStart = append(d.condStart, 0)
	d.memStart = append(d.memStart, 0)
	d.rsDict = &runstream.Dict{Runs: make([]runstream.Run, 0, len(d.runs))}
	nCond := int32(0)
	for _, r := range d.runs {
		if int64(r.pc)+int64(r.n) > int64(d.ni) {
			return fmt.Errorf("trace: dictionary run [%d,%d) outside program (%d insts)",
				r.pc, int64(r.pc)+int64(r.n), d.ni)
		}
		for off := int32(0); off < r.n; off++ {
			switch cls[r.pc+off] {
			case isa.ClassCondBranch:
				nCond++
			case isa.ClassLoad, isa.ClassStore:
				d.memOff = append(d.memOff, off)
			}
		}
		d.condStart = append(d.condStart, nCond)
		d.memStart = append(d.memStart, int32(len(d.memOff)))
		d.rsDict.Runs = append(d.rsDict.Runs, runstream.Run{PC: r.pc, N: r.n})
	}
	return nil
}

// bindShared binds the indexed reader's immutable, footer-loaded
// dictionary: many shard workers may race to the first column decode,
// so the one-shot bind runs under a sync.Once.
func (d *v4Dict) bindShared(prog *isa.Program) error {
	d.bindOnce.Do(func() { d.bindErr = d.bind(prog) })
	return d.bindErr
}

func (d *v4Dict) condCount(id int32) int32 {
	return d.condStart[id+1] - d.condStart[id]
}

func (d *v4Dict) memCount(id int32) int32 {
	return d.memStart[id+1] - d.memStart[id]
}

// appendDictPayload encodes the dictionary's footer payload.
func appendDictPayload(dst []byte, runs []dictRun) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(runs)))
	prev := int64(0)
	for _, r := range runs {
		dst = binary.AppendUvarint(dst, zigzag(int64(r.pc)-prev))
		dst = binary.AppendUvarint(dst, uint64(r.n))
		prev = int64(r.pc)
	}
	return dst
}

// parseDictPayload decodes a footer dict payload into a fresh
// dictionary, with the same structural validation chunk-carried
// entries get.
func parseDictPayload(data []byte) (*v4Dict, error) {
	d := newV4Dict()
	pos := 0
	count, pos, err := uvarintAt(data, pos)
	if err != nil {
		return nil, fmt.Errorf("trace: read dictionary count: %w", err)
	}
	if count > maxDictRuns {
		return nil, fmt.Errorf("trace: dictionary claims %d runs (max %d)", count, maxDictRuns)
	}
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		var u uint64
		if u, pos, err = uvarintAt(data, pos); err != nil {
			return nil, err
		}
		pc := prev + unzigzag(u)
		if u, pos, err = uvarintAt(data, pos); err != nil {
			return nil, err
		}
		if pc < 0 || pc >= 1<<31 {
			return nil, fmt.Errorf("trace: dictionary run PC %d out of range", pc)
		}
		if err := d.add(int32(pc), int64(u)); err != nil {
			return nil, err
		}
		prev = pc
	}
	if pos != len(data) {
		return nil, fmt.Errorf("trace: %d trailing bytes after dictionary", len(data)-pos)
	}
	return d, nil
}

// v4Scratch holds the per-decoder chunk-local address chains: one
// previous-address slot per static PC, epoch-stamped so resetting
// between chunks is a counter bump, not a clear.
type v4Scratch struct {
	prevAddr []uint64
	epoch    []uint32
	cur      uint32
	tokens   []runstream.Token
	newRuns  []dictRun
}

func (sc *v4Scratch) nextEpoch(ni int) {
	if len(sc.prevAddr) < ni {
		sc.prevAddr = make([]uint64, ni)
		sc.epoch = make([]uint32, ni)
		sc.cur = 0
	}
	sc.cur++
	if sc.cur == 0 { // epoch counter wrapped: clear and restart
		for i := range sc.epoch {
			sc.epoch[i] = 0
		}
		sc.cur = 1
	}
}

func (sc *v4Scratch) prev(pc int32) uint64 {
	if sc.epoch[pc] != sc.cur {
		return 0
	}
	return sc.prevAddr[pc]
}

func (sc *v4Scratch) set(pc int32, a uint64) {
	sc.epoch[pc] = sc.cur
	sc.prevAddr[pc] = a
}

// v4Hdr is the parsed token stream of one chunk (everything before
// the split-compression cut).
type v4Hdr struct {
	base       uint64
	n          int
	dictBase   int
	newRuns    int
	tokens     []runstream.Token
	finalDelta int64
	pos        int // offset just past finalTargetDelta
}

// parseChunkV4 parses and validates a chunk's token stream against
// the footer-loaded dictionary: the entries the chunk defines must
// match the footer's at the same ids, every token must reference a
// defined run, the tokens must span exactly the chunk's events, and
// the final target must fit an int32. data may be a stream-1 prefix:
// parsing stops at the cut.
func parseChunkV4(data []byte, dict *v4Dict, sc *v4Scratch) (v4Hdr, error) {
	var h v4Hdr
	pos := 0
	base, pos, err := uvarintAt(data, pos)
	if err != nil {
		return h, err
	}
	n64, pos, err := uvarintAt(data, pos)
	if err != nil {
		return h, err
	}
	if n64 == 0 || n64 > maxChunkEvents {
		return h, fmt.Errorf("trace: chunk claims %d records (max %d)", n64, maxChunkEvents)
	}
	dictBase64, pos, err := uvarintAt(data, pos)
	if err != nil {
		return h, err
	}
	newRuns64, pos, err := uvarintAt(data, pos)
	if err != nil {
		return h, err
	}
	if dictBase64 > maxDictRuns || newRuns64 > n64 {
		return h, fmt.Errorf("trace: chunk dictionary section out of range (base %d, new %d)", dictBase64, newRuns64)
	}
	dictBase, newRuns := int(dictBase64), int(newRuns64)
	if dictBase+newRuns > len(dict.runs) {
		return h, fmt.Errorf("trace: chunk defines runs %d..%d, footer dictionary has %d",
			dictBase, dictBase+newRuns, len(dict.runs))
	}
	sc.newRuns = sc.newRuns[:0]
	prev := int64(0)
	for i := 0; i < newRuns; i++ {
		var u uint64
		if u, pos, err = uvarintAt(data, pos); err != nil {
			return h, err
		}
		pc := prev + unzigzag(u)
		if u, pos, err = uvarintAt(data, pos); err != nil {
			return h, err
		}
		if pc < 0 || pc >= 1<<31 {
			return h, fmt.Errorf("trace: dictionary run PC %d out of range", pc)
		}
		prev = pc
		if u < 1 || u > maxChunkEvents || int64(pc)+int64(u) > 1<<31 {
			return h, fmt.Errorf("trace: dictionary run [%d,%d) out of range", pc, int64(pc)+int64(u))
		}
		sc.newRuns = append(sc.newRuns, dictRun{pc: int32(pc), n: int32(u)})
	}
	for i, r := range sc.newRuns {
		if dict.runs[dictBase+i] != r {
			return h, fmt.Errorf("trace: chunk dictionary entry %d ([%d,%d)) disagrees with footer",
				dictBase+i, r.pc, int64(r.pc)+int64(r.n))
		}
	}
	nTok64, pos, err := uvarintAt(data, pos)
	if err != nil {
		return h, err
	}
	if nTok64 > n64 {
		return h, fmt.Errorf("trace: chunk claims %d tokens for %d events", nTok64, n64)
	}
	limit := dictBase + newRuns
	sc.tokens = sc.tokens[:0]
	var sum int64
	prevID := int32(-1)
	for i := 0; i < int(nTok64); i++ {
		var u uint64
		if u, pos, err = uvarintAt(data, pos); err != nil {
			return h, err
		}
		if u >= uint64(limit) {
			return h, fmt.Errorf("trace: token %d references run %d outside dictionary (%d runs)", i, u, limit)
		}
		id := int32(u)
		if id == prevID {
			return h, fmt.Errorf("trace: token %d repeats run %d (non-canonical stream)", i, id)
		}
		prevID = id
		if u, pos, err = uvarintAt(data, pos); err != nil {
			return h, err
		}
		if u < 1 || u > n64 {
			return h, fmt.Errorf("trace: token %d repeat count %d out of range", i, u)
		}
		sum += int64(dict.runs[id].n) * int64(u)
		if sum > int64(n64) {
			return h, fmt.Errorf("trace: token stream spans %d+ events, chunk claims %d", sum, n64)
		}
		sc.tokens = append(sc.tokens, runstream.Token{ID: id, Rep: int32(u)})
	}
	if sum != int64(n64) {
		return h, fmt.Errorf("trace: token stream spans %d events, chunk claims %d", sum, n64)
	}
	var u uint64
	if u, pos, err = uvarintAt(data, pos); err != nil {
		return h, err
	}
	last := dict.runs[sc.tokens[len(sc.tokens)-1].ID]
	if ft := int64(last.pc) + int64(last.n) + unzigzag(u); ft < -(1<<31) || ft >= 1<<31 {
		return h, fmt.Errorf("trace: target %d out of int32 range", ft)
	}
	h = v4Hdr{
		base:       base,
		n:          int(n64),
		dictBase:   dictBase,
		newRuns:    newRuns,
		tokens:     sc.tokens,
		finalDelta: unzigzag(u),
		pos:        pos,
	}
	return h, nil
}

// v4ColumnCounts sums the bitmap and address-column geometry of a
// parsed token stream; it needs a bound dictionary.
func v4ColumnCounts(dict *v4Dict, tokens []runstream.Token) (nbr, nmem int) {
	for _, t := range tokens {
		nbr += int(dict.condCount(t.ID)) * int(t.Rep)
		nmem += int(dict.memCount(t.ID)) * int(t.Rep)
	}
	return nbr, nmem
}

// decodeChunkColumnsV4 decodes one v4 chunk payload into the
// dictionary-backed column form: tokens stay tokens (the run engine
// multiplies per token, not per event), the taken bitmap is copied
// verbatim, and only the address column is expanded — one value per
// memory instance. dict must be bound.
func decodeChunkColumnsV4(data []byte, dict *v4Dict, ch *runstream.Chunk, sc *v4Scratch) error {
	h, err := parseChunkV4(data, dict, sc)
	if err != nil {
		return err
	}
	ch.Base = h.base
	ch.N = h.n
	ch.Dict = dict.rsDict
	ch.Tokens = append(ch.Tokens[:0], h.tokens...)
	ch.Addrs = ch.Addrs[:0]

	nbr, nmem := v4ColumnCounts(dict, h.tokens)
	nbb := (nbr + 7) / 8
	pos := h.pos
	if pos+nbb > len(data) {
		return fmt.Errorf("trace: chunk truncated at offset %d (need %d bytes)", pos, nbb)
	}
	bm := data[pos : pos+nbb]
	pos += nbb
	if nbr%8 != 0 && bm[nbb-1]>>(nbr%8) != 0 {
		return fmt.Errorf("trace: nonzero padding bits in chunk bitmap")
	}
	ch.BrTaken = append(ch.BrTaken[:0], bm...)

	if cap(ch.Addrs) < nmem {
		ch.Addrs = make([]uint64, 0, nmem+nmem/4)
	}
	sc.nextEpoch(int(dict.ni))
	for _, t := range h.tokens {
		id := t.ID
		mOffs := dict.memOff[dict.memStart[id]:dict.memStart[id+1]]
		pcBase := dict.runs[id].pc
		for rep := int32(0); rep < t.Rep; rep++ {
			for _, off := range mOffs {
				if uint(pos) >= uint(len(data)) {
					return errTruncatedVarint
				}
				u := uint64(data[pos])
				pos++
				if u >= 0x80 {
					if uint(pos) < uint(len(data)) && data[pos] < 0x80 {
						u = u&0x7f | uint64(data[pos])<<7
						pos++
					} else if u, pos, err = uvarintAt(data, pos-1); err != nil {
						return err
					}
				}
				pc := pcBase + off
				a := sc.prev(pc) + uint64(unzigzag(u))
				sc.set(pc, a)
				ch.Addrs = append(ch.Addrs, a)
			}
		}
	}
	if pos != len(data) {
		return fmt.Errorf("trace: %d trailing bytes after chunk payload", len(data)-pos)
	}
	return nil
}

// scanChunkTokensV4 parses only the token stream of a v4 chunk
// (structural and dictionary validation included) and reports it
// through fn. data may be a stream-1 prefix (frameTokens's
// contract); trailing-byte validation of the full payload is the
// column decoder's job.
func scanChunkTokensV4(data []byte, dict *v4Dict, sc *v4Scratch, fn func(pc, n int32, rep int64)) (uint64, int, error) {
	h, err := parseChunkV4(data, dict, sc)
	if err != nil {
		return 0, 0, err
	}
	for _, t := range h.tokens {
		r := dict.runs[t.ID]
		fn(r.pc, r.n, int64(t.Rep))
	}
	return h.base, h.n, nil
}

// v4Writer is the writer-side encoder state: the growing dictionary,
// the program class tables the representability checks need, and the
// per-chunk address chains.
type v4Writer struct {
	prog *isa.Program
	dict *v4Dict
	ni   int32

	cls []byte // per PC: 0 other, 1 cond branch, 2 uncond branch, 3 mem

	tokens  []runstream.Token
	newRuns []dictRun
	sc      v4Scratch
}

func newV4Writer(prog *isa.Program) *v4Writer {
	vw := &v4Writer{prog: prog, dict: newV4Dict(), ni: int32(len(prog.Insts))}
	vw.cls = make([]byte, len(prog.Insts))
	for pc := range prog.Insts {
		switch isa.ClassOf(prog.Insts[pc].Op) {
		case isa.ClassCondBranch:
			vw.cls[pc] = 1
		case isa.ClassUncondBranch:
			vw.cls[pc] = 2
		case isa.ClassLoad, isa.ClassStore:
			vw.cls[pc] = 3
		}
	}
	return vw
}

// appendChunk encodes recs as a v4 chunk onto dst, growing the
// dictionary, and returns the extended slice plus the
// split-compression cut (the end of the token stream). It fails —
// and the Writer sticks the error — if the stream is not
// run-representable: every non-final event's target must be the next
// event's PC, unconditional branches must be taken, non-branches must
// not be, and only memory-class events may carry addresses.
func (vw *v4Writer) appendChunk(dst []byte, base uint64, recs []Record) ([]byte, int, error) {
	var tmp [binary.MaxVarintLen64]byte
	put := func(u uint64) {
		n := binary.PutUvarint(tmp[:], u)
		dst = append(dst, tmp[:n]...)
	}
	n := len(recs)
	dictBase := len(vw.dict.runs)
	vw.tokens = vw.tokens[:0]
	vw.newRuns = vw.newRuns[:0]
	nbr := 0
	start := 0
	for i := 0; i < n; i++ {
		r := &recs[i]
		if r.PC < 0 || r.PC >= vw.ni {
			return dst, 0, fmt.Errorf("trace: record %d: pc %d outside program %s (%d insts)",
				base+uint64(i), r.PC, vw.prog.Name, vw.ni)
		}
		switch vw.cls[r.PC] {
		case 1:
			nbr++
		case 2:
			if !r.Taken {
				return dst, 0, fmt.Errorf("trace: record %d: unconditional branch at pc %d not taken — stream is not run-representable", base+uint64(i), r.PC)
			}
		default:
			if r.Taken {
				return dst, 0, fmt.Errorf("trace: record %d: non-branch at pc %d marked taken — stream is not run-representable", base+uint64(i), r.PC)
			}
		}
		if vw.cls[r.PC] != 3 && r.Addr != 0 {
			return dst, 0, fmt.Errorf("trace: record %d: non-memory instruction at pc %d carries address %#x — stream is not run-representable", base+uint64(i), r.PC, r.Addr)
		}
		if i+1 < n {
			if r.Target != recs[i+1].PC {
				return dst, 0, fmt.Errorf("trace: record %d: target %d is not the next PC %d — stream is not run-representable",
					base+uint64(i), r.Target, recs[i+1].PC)
			}
			if recs[i+1].PC == r.PC+1 {
				continue // run extends
			}
		}
		// Run [start, i] ends here.
		pc, rn := recs[start].PC, int32(i-start+1)
		key := dictKey(pc, rn)
		id, ok := vw.dict.ids[key]
		if !ok {
			if len(vw.dict.runs) >= maxDictRuns {
				return dst, 0, fmt.Errorf("trace: run dictionary exceeds %d entries", maxDictRuns)
			}
			id = int32(len(vw.dict.runs))
			vw.dict.ids[key] = id
			vw.dict.runs = append(vw.dict.runs, dictRun{pc: pc, n: rn})
			vw.newRuns = append(vw.newRuns, dictRun{pc: pc, n: rn})
		}
		if k := len(vw.tokens); k > 0 && vw.tokens[k-1].ID == id {
			vw.tokens[k-1].Rep++
		} else {
			vw.tokens = append(vw.tokens, runstream.Token{ID: id, Rep: 1})
		}
		start = i + 1
	}

	put(base)
	put(uint64(n))
	put(uint64(dictBase))
	put(uint64(len(vw.newRuns)))
	prev := int64(0)
	for _, e := range vw.newRuns {
		put(zigzag(int64(e.pc) - prev))
		put(uint64(e.n))
		prev = int64(e.pc)
	}
	put(uint64(len(vw.tokens)))
	for _, t := range vw.tokens {
		put(uint64(t.ID))
		put(uint64(t.Rep))
	}
	last := &recs[n-1]
	put(zigzag(int64(last.Target) - int64(last.PC) - 1))
	cut := len(dst)

	nbb := (nbr + 7) / 8
	off := len(dst)
	dst = append(dst, make([]byte, nbb)...)
	bit := 0
	for i := range recs {
		if vw.cls[recs[i].PC] == 1 {
			if recs[i].Taken {
				dst[off+bit/8] |= 1 << (bit % 8)
			}
			bit++
		}
	}
	vw.sc.nextEpoch(int(vw.ni))
	for i := range recs {
		if vw.cls[recs[i].PC] != 3 {
			continue
		}
		pc := recs[i].PC
		a := recs[i].Addr
		put(zigzag(int64(a - vw.sc.prev(pc))))
		vw.sc.set(pc, a)
	}
	return dst, cut, nil
}
