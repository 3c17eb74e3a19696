// Package loadchar is the paper's analysis framework: in one
// instrumented pass over a program's committed instruction stream it
// gathers everything Sections 2 and 3 measure — the instruction mix
// (Figure 1, Table 1), the static-load coverage curve (Figure 2),
// data-cache behaviour per level and per static load (Tables 2/5),
// per-branch prediction accuracy with the hybrid per-static-branch
// predictor (Tables 4/5), dynamic load-to-branch dependence sequences
// and branch-to-load sequences (Table 4), source-line attribution of
// hot loads (Table 5), and the Section 3 optimization-candidate
// selection.
//
// The characterization is factored into five component passes — mix,
// cache, branch prediction, dependence chains, and branch-to-load
// sequences — each a self-contained state machine over the committed
// stream. Live analysis (Observe/ObserveBatch) runs the passes back to
// back over every slab; AnalyzeRuns replays a recorded trace's run
// columns through the block-characterized engine, exactly (not
// sampled), with the predictor and cache lanes sharded across workers.
package loadchar

import (
	"bioperfload/internal/cache"
	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// chainDepth bounds how many register-to-register operations a load's
// value may flow through while still counting as "feeding" a branch
// (the paper's tight dependence chains are 1-3 operations).
const chainDepth = 4

// proximity bounds, in dynamic instructions, how soon after a branch
// a load must execute (and how soon its value must be consumed) to
// count as a branch-to-load sequence.
const proximity = 4

// regDep tracks which loads a register's current value derives from.
type regDep struct {
	depth int8  // -1: not load-derived
	srcA  int32 // static PC of contributing load
	srcB  int32 // second contributing load or -1
}

// Analysis performs the full characterization. Create with New, attach
// to a machine (or replay a trace into it), then query the report
// methods. It implements both sim.Observer and sim.BatchObserver.
type Analysis struct {
	prog *isa.Program

	mix   mixPass
	cache cachePass
	bp    bpredPass
	dep   depPass
	seq   seqPass

	// bits carries the predictor pass's per-conditional-branch
	// mispredict outcomes to the dependence pass within one slab.
	bits misBits
	// one backs the legacy single-event Observe path.
	one [1]sim.Event
	// restored marks an analysis rebuilt from a Snapshot: reports work,
	// observation does not (the transient pass state is gone).
	restored bool

	// Exec records how a replay analysis actually ran (worker count and
	// any serial-collapse reason). Zero for live analyses.
	Exec Execution
}

// New creates an analysis for the given program, using the paper's
// cache configuration and hybrid predictor.
func New(p *isa.Program) *Analysis {
	a := &Analysis{prog: p}
	a.mix.init(len(p.Insts))
	a.cache.init(cache.PaperConfig(), len(p.Insts))
	a.bp.init()
	a.dep.init(len(p.Insts))
	a.seq.init()
	return a
}

var (
	_ sim.Observer      = (*Analysis)(nil)
	_ sim.BatchObserver = (*Analysis)(nil)
)

// ObserveBatch implements sim.BatchObserver: each component pass sweeps
// the whole slab in turn, so per-instruction dispatch is paid once per
// slab per pass and each pass's state stays hot in cache. The slab is
// recycled by the simulator after this returns; nothing here retains
// events, as required by the sim.Event contract.
func (a *Analysis) ObserveBatch(evs []sim.Event) {
	if a.restored {
		panic("loadchar: analysis restored from a snapshot cannot observe events")
	}
	a.mix.observe(evs)
	a.cache.observe(evs)
	a.bits.reset()
	a.bp.observe(evs, &a.bits)
	a.dep.observe(evs, &a.bits)
	a.seq.observe(evs)
}

// Observe implements sim.Observer (the legacy per-event path) by
// wrapping the event in a one-element slab.
func (a *Analysis) Observe(ev *sim.Event) {
	a.one[0] = *ev
	a.ObserveBatch(a.one[:])
}

// regIndex maps an instruction register operand to the dependence
// table; FP registers live above the integer file.
func fpIdx(r uint8) int { return isa.NumIntRegs + int(r) }

func isZeroReg(r uint8, isFP bool) bool {
	if isFP {
		return r == isa.FZero
	}
	return r == isa.RZero
}
