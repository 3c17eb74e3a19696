package loadchar

import (
	"bioperfload/internal/bpred"
	"bioperfload/internal/cache"
	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// The five component passes. Each is an independent sequential state
// machine over the committed-instruction stream; together they produce
// exactly the single-pass characterization. Their only coupling is
// misBits: the predictor pass records each conditional branch's
// mispredict outcome, which the dependence pass consumes in order.

// misBits is an append-only bitmap of conditional-branch mispredict
// outcomes, one bit per dynamic conditional branch in stream order.
type misBits struct {
	words []uint64
	n     int
}

func (b *misBits) reset() {
	b.words = b.words[:0]
	b.n = 0
}

func (b *misBits) push(mis bool) {
	if b.n&63 == 0 {
		b.words = append(b.words, 0)
	}
	if mis {
		b.words[b.n>>6] |= 1 << (b.n & 63)
	}
	b.n++
}

func (b *misBits) at(i int) bool { return b.words[i>>6]&(1<<(i&63)) != 0 }

// --- mix pass: instruction mix + per-static-load execution counts ---

type mixPass struct {
	classCounts [isa.NumClasses]uint64
	fpCount     uint64
	fpLoads     uint64
	total       uint64
	// counts is the dynamic execution count of each static load,
	// indexed by PC. A dense slice beats a map here: the increment on
	// every dynamic load is the pass's hot path.
	counts []uint64
}

func (p *mixPass) init(nInsts int) { p.counts = make([]uint64, nInsts) }

func (p *mixPass) observe(evs []sim.Event) {
	for i := range evs {
		op := evs[i].Inst.Op
		cls := isa.ClassOf(op)
		p.total++
		p.classCounts[cls]++
		if isa.IsFloat(op) {
			p.fpCount++
			if cls == isa.ClassLoad {
				p.fpLoads++
			}
		}
		if cls == isa.ClassLoad {
			p.counts[evs[i].PC]++
		}
	}
}

// --- cache pass: memory hierarchy + per-static-load L1 misses ---

type cachePass struct {
	hier *cache.Hierarchy
	// l1miss is the L1 miss count of each static load, indexed by PC.
	l1miss []uint64
}

func (p *cachePass) init(hc cache.HierarchyConfig, nInsts int) {
	p.hier = cache.NewHierarchy(hc)
	p.l1miss = make([]uint64, nInsts)
}

func (p *cachePass) observe(evs []sim.Event) {
	for i := range evs {
		switch isa.ClassOf(evs[i].Inst.Op) {
		case isa.ClassLoad:
			lvl, _ := p.hier.Access(evs[i].Addr, false)
			if lvl != cache.LevelL1 {
				p.l1miss[evs[i].PC]++
			}
		case isa.ClassStore:
			p.hier.Access(evs[i].Addr, true)
		}
	}
}

// --- predictor pass: hybrid branch predictor ---

type bpredPass struct {
	bp *bpred.Tracker
}

func (p *bpredPass) init() { p.bp = bpred.NewTracker(bpred.NewHybrid()) }

// observe runs the predictor over the slab, appending one mispredict
// bit per conditional branch to bits for the dependence pass.
func (p *bpredPass) observe(evs []sim.Event, bits *misBits) {
	for i := range evs {
		if isa.IsCondBranch(evs[i].Inst.Op) {
			bits.push(p.bp.Observe(evs[i].PC, evs[i].Taken))
		}
	}
}

// --- dependence pass: load-to-branch chains ---

type depPass struct {
	deps [isa.NumIntRegs + isa.NumFPRegs]regDep
	// toBranch counts, per load PC (dense, indexed by PC), dynamic
	// instances feeding a conditional branch.
	toBranch []uint64
	// fedBranch counts, per load PC and branch PC, how often the load
	// fed the branch.
	fedBranch     map[int32]map[int32]uint64
	fedBranchExec uint64
	fedBranchMiss uint64
	// lastLoadPC/lastFB memoize the inner fedBranch map: consecutive
	// credits overwhelmingly come from the same hot load.
	lastLoadPC int32
	lastFB     map[int32]uint64
	// rec, when non-nil, puts the pass in recording mode: every
	// conditional branch is reported to the hook instead of the pass's
	// own counters, and the mispredict bitmap is not consulted (the
	// block-characterized replay joins fed flags with mispredicts in
	// its predictor lane). The register dependence state machine is
	// unaffected, so recorded transitions are exact.
	rec func(branchPC int32, fed bool, srcA, srcB int32)
}

func (p *depPass) init(nInsts int) {
	p.toBranch = make([]uint64, nInsts)
	p.fedBranch = make(map[int32]map[int32]uint64)
	p.lastLoadPC = -1
	p.lastFB = nil
	for i := range p.deps {
		p.deps[i].depth = -1
	}
}

func (p *depPass) credit(loadPC, branchPC int32) {
	p.toBranch[loadPC]++
	fb := p.lastFB
	if fb == nil || p.lastLoadPC != loadPC {
		fb = p.fedBranch[loadPC]
		if fb == nil {
			fb = make(map[int32]uint64)
			p.fedBranch[loadPC] = fb
		}
		p.lastFB = fb
		p.lastLoadPC = loadPC
	}
	fb[branchPC]++
}

// observe advances the register dependence state machine. bits must
// hold the mispredict outcome of every conditional branch in evs, in
// order; its cursor state lives here (bit index == conditional-branch
// ordinal within the slab).
func (p *depPass) observe(evs []sim.Event, bits *misBits) {
	br := 0
	for i := range evs {
		in := evs[i].Inst
		op := in.Op
		switch cls := isa.ClassOf(op); {
		case cls == isa.ClassLoad:
			dst := int(in.Rd)
			if op == isa.OpLdt {
				dst = fpIdx(in.Rd)
			}
			if !isZeroReg(in.Rd, op == isa.OpLdt) {
				p.deps[dst] = regDep{depth: 0, srcA: evs[i].PC, srcB: -1}
			}
		case cls == isa.ClassStore:
		case cls == isa.ClassCondBranch:
			d := p.deps[in.Ra]
			fed := in.Ra != isa.RZero && d.depth >= 0
			if p.rec != nil {
				p.rec(evs[i].PC, fed, d.srcA, d.srcB)
				continue
			}
			mis := bits.at(br)
			br++
			if fed {
				p.fedBranchExec++
				if mis {
					p.fedBranchMiss++
				}
				p.credit(d.srcA, evs[i].PC)
				if d.srcB >= 0 && d.srcB != d.srcA {
					p.credit(d.srcB, evs[i].PC)
				}
			}
		default:
			p.propagate(in)
		}
	}
}

// propagate advances the register dependence state for non-memory,
// non-branch instructions.
func (p *depPass) propagate(in *isa.Inst) {
	op := in.Op
	clearDst := func(idx int) { p.deps[idx] = regDep{depth: -1} }

	merge := func(dst int, srcs ...int) {
		nd := regDep{depth: -1, srcA: -1, srcB: -1}
		for _, s := range srcs {
			d := p.deps[s]
			if d.depth < 0 || d.depth >= chainDepth {
				continue
			}
			if nd.depth < 0 {
				nd = regDep{depth: d.depth + 1, srcA: d.srcA, srcB: d.srcB}
				continue
			}
			if d.depth+1 > nd.depth {
				nd.depth = d.depth + 1
			}
			if nd.srcB < 0 && d.srcA != nd.srcA {
				nd.srcB = d.srcA
			}
		}
		p.deps[dst] = nd
	}

	switch {
	case op == isa.OpLdiq || op == isa.OpLda:
		if !isZeroReg(in.Rd, false) {
			if op == isa.OpLda {
				merge(int(in.Rd), int(in.Ra))
			} else {
				clearDst(int(in.Rd))
			}
		}
	case isa.IsCmov(op):
		if !isZeroReg(in.Rd, false) {
			merge(int(in.Rd), int(in.Ra), int(in.Rb), int(in.Rd))
		}
	case op == isa.OpCmpTeq || op == isa.OpCmpTlt || op == isa.OpCmpTle:
		if !isZeroReg(in.Rd, false) {
			merge(int(in.Rd), fpIdx(in.Ra), fpIdx(in.Rb))
		}
	case op == isa.OpCvtQT:
		if !isZeroReg(in.Rd, true) {
			merge(fpIdx(in.Rd), int(in.Ra))
		}
	case op == isa.OpCvtTQ:
		if !isZeroReg(in.Rd, false) {
			merge(int(in.Rd), fpIdx(in.Ra))
		}
	case op == isa.OpFMov || op == isa.OpFNeg:
		if !isZeroReg(in.Rd, true) {
			merge(fpIdx(in.Rd), fpIdx(in.Ra))
		}
	case op == isa.OpAddt || op == isa.OpSubt || op == isa.OpMult || op == isa.OpDivt:
		if !isZeroReg(in.Rd, true) {
			merge(fpIdx(in.Rd), fpIdx(in.Ra), fpIdx(in.Rb))
		}
	case op == isa.OpPrint || op == isa.OpPrintF || op == isa.OpHalt || op == isa.OpNop:
	case op == isa.OpJsr:
		if !isZeroReg(in.Rd, false) {
			clearDst(int(in.Rd))
		}
	case op == isa.OpRet:
	default: // integer ALU
		if isZeroReg(in.Rd, false) {
			return
		}
		if in.HasImm {
			merge(int(in.Rd), int(in.Ra))
		} else {
			merge(int(in.Rd), int(in.Ra), int(in.Rb))
		}
	}
}

// --- sequence pass: branch-to-load sequences (Table 4b) ---

type pendingLoad struct {
	active      bool
	loadPC      int32
	afterBranch int32 // -1 when not right after a branch
	seq         uint64
}

type seqPass struct {
	pending       [isa.NumIntRegs + isa.NumFPRegs]pendingLoad
	lastBranchPC  int32
	lastBranchSeq uint64
	haveBranch    bool
	// afterBranch counts, per load PC and branch PC, how often the load
	// (with a tight consumer) executed right after the branch.
	afterBranch map[int32]map[int32]uint64
	// rec, when non-nil, puts the pass in recording mode: completed
	// branch-to-load sequences are reported to the hook instead of the
	// afterBranch table. The pending/branch state machine is unaffected.
	rec func(loadPC, branchPC int32)
}

func (p *seqPass) init() { p.afterBranch = make(map[int32]map[int32]uint64) }

func (p *seqPass) observe(evs []sim.Event) {
	for i := range evs {
		in := evs[i].Inst
		op := in.Op
		seq := evs[i].Seq

		// Consumption checks run before this instruction's own effects,
		// so a load reading a pending register is seen before it arms
		// its own destination.
		p.consume(in, seq)

		switch cls := isa.ClassOf(op); {
		case cls == isa.ClassLoad:
			if !isZeroReg(in.Rd, op == isa.OpLdt) {
				dst := int(in.Rd)
				if op == isa.OpLdt {
					dst = fpIdx(in.Rd)
				}
				after := int32(-1)
				if p.haveBranch && seq-p.lastBranchSeq <= proximity {
					after = p.lastBranchPC
				}
				p.pending[dst] = pendingLoad{active: true, loadPC: evs[i].PC, afterBranch: after, seq: seq}
			}
		case cls == isa.ClassStore:
		case cls == isa.ClassCondBranch:
			p.lastBranchPC = evs[i].PC
			p.lastBranchSeq = seq
			p.haveBranch = true
		default:
			p.deactivate(in)
		}
	}
}

// consume checks whether this instruction reads a register holding a
// pending just-loaded value within the proximity window, completing a
// branch-to-load sequence record.
func (p *seqPass) consume(in *isa.Inst, seq uint64) {
	check := func(idx int) {
		pd := &p.pending[idx]
		if !pd.active {
			return
		}
		if seq-pd.seq > proximity {
			pd.active = false
			return
		}
		if pd.afterBranch >= 0 {
			if p.rec != nil {
				p.rec(pd.loadPC, pd.afterBranch)
			} else {
				ab := p.afterBranch[pd.loadPC]
				if ab == nil {
					ab = make(map[int32]uint64)
					p.afterBranch[pd.loadPC] = ab
				}
				ab[pd.afterBranch]++
			}
		}
		pd.active = false
	}
	op := in.Op
	switch {
	case op == isa.OpNop || op == isa.OpHalt || op == isa.OpLdiq || op == isa.OpBr || op == isa.OpJsr:
	case op == isa.OpLdt || op == isa.OpLdq || op == isa.OpLdbu || op == isa.OpLda:
		check(int(in.Ra))
	case op == isa.OpStq || op == isa.OpStb:
		check(int(in.Ra))
		check(int(in.Rb))
	case op == isa.OpStt:
		check(int(in.Ra))
		check(fpIdx(in.Rb))
	case op == isa.OpAddt || op == isa.OpSubt || op == isa.OpMult || op == isa.OpDivt ||
		op == isa.OpCmpTeq || op == isa.OpCmpTlt || op == isa.OpCmpTle:
		check(fpIdx(in.Ra))
		check(fpIdx(in.Rb))
	case op == isa.OpCvtQT:
		check(int(in.Ra))
	case op == isa.OpCvtTQ, op == isa.OpFMov, op == isa.OpFNeg, op == isa.OpPrintF:
		check(fpIdx(in.Ra))
	case isa.IsCondBranch(op) || op == isa.OpRet || op == isa.OpPrint:
		check(int(in.Ra))
	case isa.IsCmov(op):
		check(int(in.Ra))
		check(int(in.Rb))
		check(int(in.Rd))
	default: // integer ALU
		check(int(in.Ra))
		if !in.HasImm {
			check(int(in.Rb))
		}
	}
}

// deactivate mirrors depPass.propagate's destination-register writes:
// any instruction that overwrites a register disarms a pending load
// waiting there. The case structure must match propagate exactly.
func (p *seqPass) deactivate(in *isa.Inst) {
	op := in.Op
	clear := func(idx int) { p.pending[idx].active = false }

	switch {
	case op == isa.OpLdiq || op == isa.OpLda:
		if !isZeroReg(in.Rd, false) {
			clear(int(in.Rd))
		}
	case isa.IsCmov(op):
		if !isZeroReg(in.Rd, false) {
			clear(int(in.Rd))
		}
	case op == isa.OpCmpTeq || op == isa.OpCmpTlt || op == isa.OpCmpTle:
		if !isZeroReg(in.Rd, false) {
			clear(int(in.Rd))
		}
	case op == isa.OpCvtQT:
		if !isZeroReg(in.Rd, true) {
			clear(fpIdx(in.Rd))
		}
	case op == isa.OpCvtTQ:
		if !isZeroReg(in.Rd, false) {
			clear(int(in.Rd))
		}
	case op == isa.OpFMov || op == isa.OpFNeg:
		if !isZeroReg(in.Rd, true) {
			clear(fpIdx(in.Rd))
		}
	case op == isa.OpAddt || op == isa.OpSubt || op == isa.OpMult || op == isa.OpDivt:
		if !isZeroReg(in.Rd, true) {
			clear(fpIdx(in.Rd))
		}
	case op == isa.OpPrint || op == isa.OpPrintF || op == isa.OpHalt || op == isa.OpNop:
	case op == isa.OpJsr:
		if !isZeroReg(in.Rd, false) {
			clear(int(in.Rd))
		}
	case op == isa.OpRet:
	default: // integer ALU
		if !isZeroReg(in.Rd, false) {
			clear(int(in.Rd))
		}
	}
}
